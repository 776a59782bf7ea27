"""Periodic whole-bank telemetry over :class:`~repro.common.tables.TableBank`.

Every predictor table lives in struct-of-arrays ``TableBank`` storage,
which makes whole-bank questions — how full is the LVT, how
much useful-bit mass do the tagged components carry, how long do
entries survive — a cheap columnar read (``dump()``) instead of a
per-entry crawl.  :class:`BankTelemetry` turns that into time series:
pass one as the ``banks`` probe of a pipeline run and it snapshots
every registered bank on a configurable µ-op cadence, yielding warmup
curves (occupancy over µ-ops) and an end-of-run utility heatmap
(per-component occupancy / useful mass / entry age).

Banks self-describe through a ``table_banks()`` hook on the VP adapter
(the BeBoP engine forwards its predictor's LVT / VT-0 / tagged banks);
anything else can be added with :meth:`register`.  Sampling is purely
read-only — ``dump()`` copies columns — so an instrumented run's stats
stay bit-identical, and a run without one costs one ``is None`` check per
fetch group.

Entry *age* is measured in completed sampling intervals: an entry whose
tag survived N consecutive snapshots has age N.  The snapshot list is
bounded (``max_snapshots``): when full it is decimated by dropping
every second snapshot, so arbitrarily long runs keep a coarse but
complete warmup curve in O(max_snapshots) memory.
"""

from __future__ import annotations


class BankTelemetry:
    """Sampled occupancy/utility telemetry for registered TableBanks.

    ``interval`` is the sampling cadence in µ-ops; ``max_snapshots``
    bounds retained history (decimation keeps first-to-last coverage).
    """

    def __init__(self, interval: int = 10_000,
                 max_snapshots: int = 64) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if max_snapshots < 4:
            raise ValueError(
                f"max_snapshots must be >= 4, got {max_snapshots}"
            )
        self.interval = interval
        self.max_snapshots = max_snapshots
        self._banks: list[dict] = []
        self._names: set[str] = set()
        # Per-bank entry ages (in snapshots) and the previous tag column,
        # for banks that declare a tag field.
        self._ages: dict[str, list[int]] = {}
        self._prev_tags: dict[str, list[int]] = {}
        self.snapshots: list[dict] = []
        self.samples = 0          # sample() calls (decimation never lowers it)

    # -- registration -------------------------------------------------------

    def register(self, name: str, bank, components: int = 1,
                 tag_field: str | None = None, tag_invalid: int = -1,
                 useful_field: str | None = None,
                 useful_gen_field: str | None = None,
                 gen=None) -> None:
        """Register one bank.

        ``components`` slices the entry range into equal sub-tables (the
        flat tagged bank holds ``components × tagged_entries`` rows).
        ``tag_field``/``tag_invalid`` enable tag-valid-fraction and
        entry-age tracking.  ``useful_field`` (optionally gated by
        ``useful_gen_field`` + a ``gen()`` callable returning the live
        generation counter) enables useful-bit-mass tracking.
        """
        if name in self._names:
            raise ValueError(f"bank {name!r} already registered")
        if components < 1 or bank.entries % components:
            raise ValueError(
                f"bank {name!r}: {bank.entries} entries do not split into "
                f"{components} component(s)"
            )
        self._names.add(name)
        self._banks.append({
            "name": name,
            "bank": bank,
            "components": components,
            "tag_field": tag_field,
            "tag_invalid": tag_invalid,
            "useful_field": useful_field,
            "useful_gen_field": useful_gen_field,
            "gen": gen,
        })
        if tag_field is not None:
            self._ages[name] = [0] * bank.entries
            self._prev_tags[name] = [tag_invalid] * bank.entries

    def attach(self, sources) -> None:
        """Register every bank description in ``sources`` (the shape
        ``table_banks()`` hooks return: an iterable of kwargs dicts),
        skipping names already registered (re-runs reuse a collector)."""
        for src in sources:
            if src.get("name") in self._names:
                continue
            self.register(**src)

    @property
    def bank_names(self) -> tuple[str, ...]:
        return tuple(b["name"] for b in self._banks)

    # -- sampling -----------------------------------------------------------

    def _sample_bank(self, spec: dict) -> dict:
        bank = spec["bank"]
        name = spec["name"]
        dump = bank.dump()
        components = spec["components"]
        per_comp = bank.entries // components

        tag_field = spec["tag_field"]
        tags = dump[tag_field] if tag_field is not None else None
        invalid = spec["tag_invalid"]

        ages = self._ages.get(name)
        if tags is not None:
            prev = self._prev_tags[name]
            for i, tag in enumerate(tags):
                if tag != invalid and tag == prev[i]:
                    ages[i] += 1
                else:
                    ages[i] = 0
            self._prev_tags[name] = tags

        useful = None
        if spec["useful_field"] is not None:
            useful = dump[spec["useful_field"]]
            gen_field = spec["useful_gen_field"]
            if gen_field is not None and spec["gen"] is not None:
                cur = spec["gen"]()
                gens = dump[gen_field]
                useful = [u if g == cur else 0
                          for u, g in zip(useful, gens)]

        comps = []
        for c in range(components):
            lo, hi = c * per_comp, (c + 1) * per_comp
            comp: dict = {}
            if tags is not None:
                valid = sum(1 for t in tags[lo:hi] if t != invalid)
                comp["tag_valid"] = valid / per_comp
                comp["occupancy"] = comp["tag_valid"]
                live_ages = [ages[i] for i in range(lo, hi)
                             if tags[i] != invalid]
                comp["mean_age"] = (
                    sum(live_ages) / len(live_ages) if live_ages else 0.0
                )
            else:
                # No tag: occupancy is the nonzero fraction of the first
                # declared field's lanes (width-aware slice).
                first = bank.fields[0]
                lanes = dump[first.name]
                width = first.width
                lane_lo, lane_hi = lo * width, hi * width
                nz = sum(1 for v in lanes[lane_lo:lane_hi] if v)
                comp["occupancy"] = nz / (per_comp * width)
            if useful is not None:
                comp["useful_mass"] = sum(useful[lo:hi])
            comps.append(comp)

        out = {
            "entries": bank.entries,
            "components": comps,
            "occupancy": sum(c["occupancy"] for c in comps) / len(comps),
        }
        if useful is not None:
            out["useful_mass"] = sum(c["useful_mass"] for c in comps)
        return out

    def sample(self, uop_index: int, final: bool = False) -> dict | None:
        """Take one snapshot (deduped when nothing advanced since the
        last one, so the end-of-run sample never double-counts ages)."""
        if self.snapshots and self.snapshots[-1]["uop"] == uop_index:
            if final:
                self.snapshots[-1]["final"] = True
            return None
        snap = {
            "uop": uop_index,
            "final": final,
            "banks": {b["name"]: self._sample_bank(b) for b in self._banks},
        }
        self.snapshots.append(snap)
        self.samples += 1
        if len(self.snapshots) > self.max_snapshots:
            # Decimate: keep first/last, drop every second one in between.
            kept = self.snapshots[:-1:2] + self.snapshots[-1:]
            self.snapshots = kept
        return snap

    # -- reading ------------------------------------------------------------

    def curve(self, bank: str, key: str = "occupancy") -> list[tuple[int, float]]:
        """Warmup curve: (µ-op index, value of ``key``) per snapshot."""
        return [(s["uop"], s["banks"][bank][key])
                for s in self.snapshots if bank in s["banks"]]

    def summary(self) -> dict:
        """JSON-ready roll-up: final per-component heatmap per bank plus
        the retained occupancy curve."""
        last = self.snapshots[-1] if self.snapshots else None
        banks = {}
        for spec in self._banks:
            name = spec["name"]
            entry = {
                "entries": spec["bank"].entries,
                "n_components": spec["components"],
                "occupancy_curve": self.curve(name),
            }
            if last is not None and name in last["banks"]:
                entry["final"] = last["banks"][name]
            banks[name] = entry
        return {
            "interval": self.interval,
            "samples": self.samples,
            "snapshots": len(self.snapshots),
            "banks": banks,
        }

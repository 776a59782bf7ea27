"""Branch prediction substrate.

The pipeline model needs a realistic conditional branch predictor both for
timing (20-cycle minimum misprediction penalty, Table I) and because the
global branch/path history it maintains is the context that indexes
VTAGE/D-VTAGE tagged components.  :mod:`repro.branch.tage` implements the
TAGE predictor (Seznec & Michaud) the paper configures with 1+12 components;
:mod:`repro.branch.btb` provides the branch target buffer of Table I.
"""

from repro.branch.tage import TAGEBranchPredictor
from repro.branch.btb import BranchTargetBuffer

__all__ = ["TAGEBranchPredictor", "BranchTargetBuffer"]

"""Box-fusion methods for combining detections from multiple detectors.

The paper (Section 5.2) evaluates NMS, Soft-NMS, Softer-NMS, WBF, NMW and
Fusion, then adopts WBF for all experiments because it produces the most
accurate outputs.  This subpackage implements all of them behind a common
:class:`~repro.ensembling.base.EnsembleMethod` interface so the comparison
itself is reproducible (see ``benchmarks/test_fusion_methods.py``).
"""

from repro.ensembling.base import EnsembleMethod
from repro.ensembling.fusion import ConsensusFusion
from repro.ensembling.nms import NonMaximumSuppression
from repro.ensembling.nmw import NonMaximumWeighted
from repro.ensembling.registry import available_methods, create_method
from repro.ensembling.soft_nms import SoftNMS
from repro.ensembling.softer_nms import SofterNMS
from repro.ensembling.wbf import WeightedBoxesFusion

__all__ = [
    "ConsensusFusion",
    "EnsembleMethod",
    "NonMaximumSuppression",
    "NonMaximumWeighted",
    "SoftNMS",
    "SofterNMS",
    "WeightedBoxesFusion",
    "available_methods",
    "create_method",
]

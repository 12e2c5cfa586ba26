"""Corner-keypoint object detection pipeline with a synthetic closed-loop oracle.

The package is organized around the stages of the pipeline:

- :mod:`cornerdet.tensorio` -- dense float32 tensors and the CPNT file format
- :mod:`cornerdet.geometry` -- the ground-truth and detection row types, IoU
- :mod:`cornerdet.corners` -- heatmap decoding and training-target rendering
- :mod:`cornerdet.proposals` -- corner pairing, RoIAlign and classifier heads over
  each feature map's listed channels
- :mod:`cornerdet.losses` -- focal-style losses with analytic gradients
- :mod:`cornerdet.postprocess` -- filtering, score fusion, soft-NMS to the top k
- :mod:`cornerdet.evaluation` -- AP / AR / AF detection metrics
- :mod:`cornerdet.synth` -- synthetic scenes with planted, decodable features
- :mod:`cornerdet.pipeline` -- end-to-end detection over tensor bundles
- :mod:`cornerdet.cli` -- ``detect`` / ``synth`` / ``eval`` subcommands
"""

from cornerdet.geometry import DET_DTYPE, TRUTH_DTYPE
from cornerdet.tensorio import TensorFormatError, load_tensor, store_tensor

__all__ = [
    "DET_DTYPE",
    "TRUTH_DTYPE",
    "TensorFormatError",
    "load_tensor",
    "store_tensor",
]

"""Dataset tooling: synthetic OpenFWI-style data, containers and resampling.

The OpenFWI FlatVelA dataset used by the paper cannot be redistributed
offline; :mod:`repro.data.openfwi` regenerates a statistically equivalent
dataset by sampling FlatVel-style layered velocity models and running the
acoustic forward model over them (the same process OpenFWI used to create the
originals).  :mod:`repro.data.dataset` holds the paired samples and performs
the 400/100 train/test split of the paper; :mod:`repro.data.resample`
implements the nearest-neighbour baseline ("D-Sample") and other resampling
utilities; :mod:`repro.data.normalization` maps velocities to the unit range
used by the losses and metrics; :mod:`repro.data.store` persists generated
datasets as fingerprint-keyed ``.npz`` shards and streams them back through
:class:`~repro.data.store.ShardLoader`; its
:func:`~repro.data.store.build_dataset` is the one resumable, parallel,
bit-identical chunk loop behind :meth:`SyntheticOpenFWI.build` and
:func:`open_or_build`.
"""

from repro.data.dataset import FWISample, FWIDataset, train_test_split
from repro.data.openfwi import (
    OpenFWIConfig,
    SyntheticOpenFWI,
    build_flatvel_dataset,
    chunk_layout,
)
from repro.data.resample import nearest_neighbor_resample, bilinear_resample, resample_2d
from repro.data.normalization import VelocityNormalizer, MinMaxNormalizer
from repro.data.store import (
    DatasetStore,
    ShardLoader,
    dataset_fingerprint,
    open_or_build,
)

__all__ = [
    "FWISample",
    "FWIDataset",
    "train_test_split",
    "OpenFWIConfig",
    "SyntheticOpenFWI",
    "build_flatvel_dataset",
    "chunk_layout",
    "nearest_neighbor_resample",
    "bilinear_resample",
    "resample_2d",
    "VelocityNormalizer",
    "MinMaxNormalizer",
    "DatasetStore",
    "ShardLoader",
    "dataset_fingerprint",
    "open_or_build",
]

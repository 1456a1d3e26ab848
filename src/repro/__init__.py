"""SupeRBNN: randomized binary neural networks on AQFP superconducting devices.

A full reproduction of "SupeRBNN: Randomized Binary Neural Network Using
Adiabatic Superconductor Josephson Devices" (MICRO 2023): the AQFP
device models, the crossbar accelerator with stochastic-computing
accumulation, the randomized-aware BNN training algorithm, the
algorithm/hardware co-optimization, and the full evaluation harness.

Quickstart::

    from repro import (HardwareConfig, Mlp, Trainer, TrainingConfig,
                       compile_model, evaluate_accuracy)
    from repro.data import make_mnist_like, DataLoader

    hw = HardwareConfig(crossbar_size=16, window_bits=16)
    train, test = make_mnist_like(2000).split()
    model = Mlp(in_features=144, hardware=hw)
    Trainer(model, TrainingConfig(epochs=20)).fit(DataLoader(train))
    network = compile_model(model)             # BN matching + tiling
    acc = evaluate_accuracy(network, test.images, test.labels)

Subpackages:

=================  ====================================================
``repro.autograd``  numpy reverse-mode autodiff + layers + optimizers
``repro.device``    AQFP buffer physics, attenuation, cell library
``repro.circuits``  gate-level netlists, clocking, APC, comparator, BCM
``repro.sc``        stochastic-computing encodings and accumulation
``repro.hardware``  crossbar arrays, tiled accelerator, cost model
``repro.core``      randomized training, ReCU, BN matching, co-opt
``repro.mapping``   model -> hardware compiler and executor shims
``repro.api``       unified inference Engine / Session / backend registry
``repro.models``    MLP / VGG-small / ResNet-18 (binarized)
``repro.data``      synthetic datasets + loaders
``repro.baselines`` published comparison points + cryo scaling
``repro.experiments`` one harness per paper table/figure
=================  ====================================================
"""

from repro.hardware.config import HardwareConfig
from repro.hardware.crossbar import CrossbarArray
from repro.hardware.accelerator import AqfpAccelerator, TiledLinearLayer
from repro.hardware.cost import AcceleratorCostModel, CrossbarCost, LayerWorkload
from repro.device.aqfp import AqfpBuffer, ValueDomainBuffer
from repro.device.attenuation import AttenuationModel
from repro.core.trainer import Trainer, TrainingConfig
from repro.core.recu import ReCU, TauSchedule
from repro.core.coopt import (
    average_mismatch_error,
    optimize_hardware_config,
    sweep_bitstream_lengths,
)
from repro.mapping.compiler import CompiledNetwork, compile_model
from repro.mapping.executor import evaluate_accuracy, network_workloads
from repro.models import Mlp, ResNet18, VggSmall
from repro.api import (
    Engine,
    EngineBuilder,
    InferenceResult,
    ServingReport,
    Session,
    available_backends,
    register_backend,
)

__version__ = "1.2.0"

__all__ = [
    "HardwareConfig",
    "CrossbarArray",
    "TiledLinearLayer",
    "AqfpAccelerator",
    "AcceleratorCostModel",
    "CrossbarCost",
    "LayerWorkload",
    "AqfpBuffer",
    "ValueDomainBuffer",
    "AttenuationModel",
    "Trainer",
    "TrainingConfig",
    "ReCU",
    "TauSchedule",
    "average_mismatch_error",
    "optimize_hardware_config",
    "sweep_bitstream_lengths",
    "compile_model",
    "CompiledNetwork",
    "evaluate_accuracy",
    "network_workloads",
    "Engine",
    "EngineBuilder",
    "Session",
    "ServingReport",
    "InferenceResult",
    "register_backend",
    "available_backends",
    "Mlp",
    "VggSmall",
    "ResNet18",
    "__version__",
]

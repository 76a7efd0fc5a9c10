"""Random feature models with learnable RBF activation functions.

Subpackages:
    kernel       closed-form / Monte-Carlo / Taylor machinery for the
                 single-RBF feature kernel
    basis        the RBF grid parametrizing the learnable activation
    model        finite-width models and fixed-activation baselines
    optim        regularized objective, analytic gradients, Adam training
    data         synthetic targets and dataset generation
    experiments  config-driven experiment runner (CLI backend)
"""

from .kernel import (
    McEstimate,
    RbfParams,
    kernel_closed,
    kernel_mc,
    kernel_rot,
    kernel_taylor,
    poly_P,
    poly_Q,
    r_n,
    taylor_derivs,
)
from .basis import (
    ActivationGrid,
    activation_curve,
    build_grid,
    bumps,
    quadrature_weights,
)
from .model import (
    BaselineRfModel,
    FeatureBank,
    RflafModel,
    baseline_forward,
    forward,
    forward_batch,
    load_model,
    sample_features,
    save_model,
)
from .optim import (
    AdamState,
    EpochStats,
    LossBreakdown,
    TrainConfig,
    adam_step,
    grad,
    grad_check,
    loss,
    new_baseline_model,
    new_rflaf_model,
    train,
    train_baseline,
)
from .data import (
    Dataset,
    TargetSpec,
    calibrate,
    gen_dataset,
)
from .experiments import BoundsReport, rate_study, run, theory_bounds

__version__ = "0.1.0"

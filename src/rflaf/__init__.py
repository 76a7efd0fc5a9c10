"""Random feature models with learnable RBF activation functions.

The package is its modules, each imported by name (``from rflaf import
kernel``); this file imports none of them.

    kernel       closed-form / Monte-Carlo / Taylor machinery for the
                 single-RBF feature kernel
    basis        the RBF grid parametrizing the learnable activation
    model        finite-width models and the fixed-activation baselines'
                 features
    optim        regularized objective, analytic gradients, Adam training
    data         synthetic targets and dataset generation
    experiments  config-driven experiment runner (CLI backend)
    configs      one frozen config dataclass per CLI mode and section
    cli          the rflaf command
"""

__version__ = "0.1.0"

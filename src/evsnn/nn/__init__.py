from .surrogate import arctan_surrogate, arctan_surrogate_grad
from .network import (IF, SEW, Accumulator, AvgPool, Classifier, ConfigError, Conv2d,
                      ForwardTrace, GlobalPool, NetworkConfig,
                      SynapticLayer, accumulate, backward, config_from_json,
                      config_to_json, forward, if_step, init_params,
                      sew18, sew_tiny, softmax, synaptic_layers)

__all__ = [
    "arctan_surrogate", "arctan_surrogate_grad",
    "IF", "SEW", "Accumulator", "AvgPool", "Classifier", "ConfigError", "Conv2d",
    "ForwardTrace", "GlobalPool", "NetworkConfig", "SynapticLayer",
    "accumulate", "backward", "config_from_json", "config_to_json",
    "forward", "if_step", "init_params", "sew18", "sew_tiny", "softmax",
    "synaptic_layers",
]

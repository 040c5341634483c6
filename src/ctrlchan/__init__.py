"""Coherently controlled quantum channels.

Models CPTP maps together with their dilations, computes the transformation
matrices that govern interference when channels are placed under a quantum
control, simulates the order-superposing switch, and evaluates the
communication and discrimination quantities that separate coherent from
classical control.
"""

from .channels import (
    Channel,
    apply,
    choi_of,
    remix,
    standard_channel,
    weyl_basis,
)
from .control import (
    ControlState,
    ControlledOutput,
    classical_control,
    classical_map,
    controlled_map,
    controlled_output,
    stinespring_oracle,
    switch_map,
    switch_output,
)
from .discrimination import (
    DiscriminationInstance,
    diamond_bound,
    optimal_input,
    output_distance,
    success_probability,
    trace_distance,
)
from .implementations import (
    AdmissibilityReport,
    ChannelImplementation,
    admissible,
    realize,
    standard_implementation,
    transformation_matrix,
)
from .info import (
    Ensemble,
    binary_entropy,
    cc_dephasing_bound,
    coherent_info_bound,
    entropy,
    holevo_lower_bound,
    switch_holevo_qubit,
    switch_holevo_qubit_gridsearch,
)
from .linalg import (
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    ket,
    partial_trace,
    projector,
    pseudoinverse,
    spectral_norm,
    trace_norm,
    validate_density_matrix,
)

__version__ = "0.1.0"

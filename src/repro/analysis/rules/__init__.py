"""Rule implementations; importing this package populates the registry."""

from repro.analysis.rules import (  # noqa: F401
    r001_rng,
    r002_float_eq,
    r003_mm1,
    r004_messages,
    r005_simtime,
    r006_pool_purity,
    r007_rng_taint,
    r008_kernel_aliasing,
    r009_swallowed_errors,
    r010_telemetry,
)

__all__ = [
    "r001_rng",
    "r002_float_eq",
    "r003_mm1",
    "r004_messages",
    "r005_simtime",
    "r006_pool_purity",
    "r007_rng_taint",
    "r008_kernel_aliasing",
    "r009_swallowed_errors",
    "r010_telemetry",
]

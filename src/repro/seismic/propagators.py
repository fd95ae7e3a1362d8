"""The propagator name recorded by the pipeline benchmark."""


def default_propagator_name() -> str:
    """Return ``"batched"``, the only propagator forward modelling runs.

    Exists only for the benchmark's resolved-engine record.
    """
    return "batched"

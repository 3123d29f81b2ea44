"""One field through a batch propagator: its snapshots, or the error that stopped it."""


def propagate_one(propagator, initial, profile, m, hbar, spec):
    """Yield the snapshots of ``initial`` propagated as a batch of one, and raise
    the error that stopped it at the snapshot where the batch reports it."""
    for [entry] in propagator([initial], profile, m, hbar, spec):
        if isinstance(entry, Exception):
            raise entry
        yield entry

"""Fixture: near-misses of ``lane-contract`` — none may trigger."""


def block_queue_with_reclaim(spec, reclaim):
    return HeaderQueue("q", spec, reclaim=reclaim)


def block_queue_with_declared_none(spec):
    # Explicit None declares the headers own no store shares.
    return HeaderQueue("q", spec, reclaim=None)


def checked_put_on_unbounded(spec, header):
    queue = HeaderQueue("q", spec, control_policy=CONTROL_UNBOUNDED)
    if not queue.put(header):
        handle_rejection(header)
    return queue


def consumed_put_many_on_unbounded(spec, headers):
    queue = HeaderQueue("q", spec, control_policy=CONTROL_UNBOUNDED)
    accepted = queue.put_many(headers)
    return accepted

"""Fixture: HeaderQueue reclaim-contract violations — every function
must trigger ``lane-contract`` (and nothing else)."""


def block_queue_without_reclaim(spec):
    queue = HeaderQueue("q", spec)  # CONTROL_BLOCK self-reclaims
    return queue


def discarded_put_on_unbounded(spec, header):
    queue = HeaderQueue("q", spec, control_policy=CONTROL_UNBOUNDED)
    queue.put(header)  # False means the caller owns the reclaim


def discarded_put_many_on_unbounded(spec, headers):
    queue = HeaderQueue("q", spec, control_policy=CONTROL_UNBOUNDED)
    queue.put_many(headers)  # accepted count dropped on the floor

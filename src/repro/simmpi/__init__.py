"""MPI-like message passing for the simulated machine.

The API mirrors mpi4py's style (``send``/``recv``/``isend``/``irecv``,
``sendrecv``, ``barrier``, ``bcast``, ``reduce``, ``allreduce``), with one
twist imposed by the discrete-event engine: blocking operations and
collectives are *generators* and must be invoked with ``yield from`` inside
a rank program::

    def program(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from comm.send(1, nbytes=800, tag=7, payload="hello")
        else:
            msg = yield from comm.recv(0, tag=7)

Collectives are implemented as real tree and recursive-doubling algorithms
over point-to-point messages, so their cost scales with ``log P`` like on a
real machine rather than being an analytic formula.

A :class:`Request` is an engine event, yielded directly. Blocking operations
add no join event: ``send`` costs one engine event, ``recv`` one or none,
``sendrecv`` one or two, and ``waitall`` none beyond its requests' own. A
receive whose message has already arrived costs no engine event: it
completes when it is posted, and blocking calls do not yield a request
that is already complete. Every completion time is the one a join would
give; the events a join would add between a message's posting and its
completion only order work that falls at one simulated time.
"""

from repro.simmpi.comm import Comm, World, attach_world
from repro.simmpi.request import Request
from repro.simmpi.topology import CartGrid, partition_sizes, pow2_grid_shape, square_grid_shape

__all__ = [
    "CartGrid",
    "Comm",
    "Request",
    "World",
    "attach_world",
    "partition_sizes",
    "pow2_grid_shape",
    "square_grid_shape",
]

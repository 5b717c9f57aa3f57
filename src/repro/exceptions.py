"""Exception hierarchy for the LEMP reproduction library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvalidParameterError(ReproError, ValueError):
    """A scalar or array parameter has an invalid value, shape, or type."""


class DimensionMismatchError(ReproError, ValueError):
    """Two matrices that must agree on rank (or shape) do not."""


class NotPreparedError(ReproError, RuntimeError):
    """A retriever method was called before :meth:`prepare` indexed the probes."""


class UnknownAlgorithmError(ReproError, KeyError):
    """An algorithm name passed to a factory is not registered."""


class UnsupportedOperationError(ReproError, NotImplementedError):
    """The retriever does not support the requested operation.

    Raised by the default :meth:`repro.core.api.Retriever.partial_fit` /
    :meth:`repro.core.api.Retriever.remove` implementations: incremental index
    maintenance is only meaningful for methods whose index structure admits
    in-place updates (LEMP's length-sorted buckets, the naive flat matrix).
    Tree- and hash-based baselines rebuild from scratch instead.
    """


class PersistenceError(ReproError, OSError):
    """A saved index directory is missing, corrupt, or version-incompatible."""


class UnknownDatasetError(ReproError, KeyError):
    """A dataset name passed to the registry is not registered."""


class ServingError(ReproError, RuntimeError):
    """Base class for errors raised by the :mod:`repro.serve` front-end.

    Also raised directly when a request (or mutation) is submitted to a
    :class:`~repro.serve.ServingEngine` that is shutting down: a request
    admitted during ``aclose()`` would land in a micro-batch group nobody
    flushes, so it is shed immediately instead of hanging forever.  The
    :class:`~repro.serve.EngineManager` treats this as a retryable
    residency race (the tenant was being evicted) and re-acquires.
    """


class UnknownTenantError(ServingError, KeyError):
    """A tenant name passed to :class:`~repro.serve.EngineManager` is not registered."""


class ServiceOverloadedError(ServingError):
    """Admission control rejected a request: the pending-row queue is full.

    Raised *before* a request is enqueued, so a shed request consumes no
    solver time.  Clients should treat this as retryable backpressure.
    """


class RequestTimeoutError(ServingError, TimeoutError):
    """A request's deadline elapsed before its micro-batch was solved.

    The batch the request was coalesced into still runs to completion (other
    requests in the batch may still be within deadline); only this request's
    caller observes the timeout.
    """

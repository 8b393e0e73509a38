"""Exception hierarchy for the BiG-index reproduction.

Every error raised by the library derives from :class:`BigIndexError` so
applications can catch library failures with a single ``except`` clause
while still distinguishing the subsystem that failed.
"""


class BigIndexError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(BigIndexError):
    """Raised for invalid graph operations (unknown vertices, bad edges)."""


class OntologyError(BigIndexError):
    """Raised for invalid ontology structures or lookups (cycles, unknown types)."""


class ConfigurationError(BigIndexError):
    """Raised when a generalization configuration violates its invariants.

    A configuration must map each label to one of its direct supertypes in
    the ontology graph (Sec. 2 of the paper), and must be label-preserving
    (Def. 2.2).
    """


class QueryError(BigIndexError):
    """Raised for malformed keyword queries (empty, unknown keywords, ...)."""


class IndexPersistenceError(BigIndexError):
    """Base class for failures loading a persisted index directory.

    Subclasses classify the failure so callers can act on it: a
    :class:`IndexVersionError` calls for a rebuild with the current code,
    a :class:`IndexCorruptedError` calls for restoring from a good copy
    (see ``docs/ROBUSTNESS.md`` for the recovery runbook).
    """


class IndexCorruptedError(IndexPersistenceError):
    """The on-disk index is damaged: checksum mismatch, truncated or
    unparsable file, or structurally inconsistent contents.

    A corrupted index never loads as a *wrong* index — the loader raises
    this instead of returning a silently half-loaded hierarchy.
    """


class IndexVersionError(IndexPersistenceError):
    """The on-disk index uses a format version this code cannot read."""


class WALError(IndexPersistenceError):
    """Base class for mutation write-ahead-log failures.

    See :mod:`repro.core.wal` for the log format and the acked-durable
    contract it backs.
    """


class WALCorruptedError(WALError):
    """The file at the WAL path is not a mutation log (bad magic).

    Unlike a torn tail this cannot be recovered by truncation — nothing
    in the file can be trusted.
    """


class WALTornTailError(WALError):
    """The log ends in a damaged tail after a valid record prefix.

    Raised by strict reads (``read_wal(..., on_tail="error")``); recovery
    paths truncate the tail instead.  Attributes locate the damage:

    Attributes
    ----------
    kind:
        ``"truncated-header"`` / ``"truncated-payload"`` (torn final
        write) or ``"checksum-mismatch"`` / ``"unparsable-payload"`` /
        ``"implausible-length"`` (damaged tail bytes).
    valid_records:
        Number of records in the recoverable prefix.
    valid_bytes:
        File offset at which the valid prefix ends.
    """

    def __init__(
        self, path: str, kind: str, valid_records: int, valid_bytes: int
    ) -> None:
        super().__init__(
            f"{path}: damaged WAL tail ({kind}) after {valid_records} "
            f"valid record(s) / {valid_bytes} byte(s)"
        )
        self.path = path
        self.kind = kind
        self.valid_records = valid_records
        self.valid_bytes = valid_bytes


class BudgetExceeded(BigIndexError):
    """An execution budget ran out before the operation completed.

    Attributes
    ----------
    reason:
        ``"deadline"``, ``"expansions"`` or ``"cancelled"``.
    expansions:
        Node expansions charged to the budget when it tripped.
    partial:
        Sound partial answers found before exhaustion.  Searchers
        guarantee the *prefix-soundness* contract: ``partial`` is sorted
        and equals the full search's ranking truncated at
        :attr:`lower_bound` — every answer the search did not get to
        scores at least ``lower_bound``.
    lower_bound:
        Sound lower bound on the score of every answer not in
        ``partial``; ``None`` when the raiser had no answer context
        (e.g. the budget tripped inside a bare charge).
    """

    def __init__(
        self,
        reason: str,
        expansions: int = 0,
        partial=(),
        lower_bound=None,
    ) -> None:
        super().__init__(
            f"execution budget exceeded ({reason}) after "
            f"{expansions} node expansion(s)"
        )
        self.reason = reason
        self.expansions = expansions
        self.partial = list(partial)
        self.lower_bound = lower_bound

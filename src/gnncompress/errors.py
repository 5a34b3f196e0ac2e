"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: FormatError -> 2,
ValidationError -> 3. Exit code 4 is a failed check, which
`cli.cmd_verify` returns itself; no exception carries it.
"""


class GnnCompressError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GnnCompressError):
    """Malformed input: unparseable lines, bad tokens, zero multiplicities."""


class ValidationError(GnnCompressError):
    """Structurally parseable input that violates an invariant
    (out-of-range node ids, duplicate entries, non-positive weights, ...)."""

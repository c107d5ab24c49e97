"""Exception types shared across the package.

Each maps to one failure family so callers (and tests) can distinguish
bad shapes from bad numerics from bad files without string matching.
`text_lines` reads the package's text inputs and types their decode errors.
"""


class ContractError(ValueError):
    """A precondition on arguments or object state was violated."""


class ShapeError(ContractError):
    """Operands have incompatible shapes; message reports both."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class ParseError(ValueError):
    """Malformed input file; message includes the offending line number."""


class IntegrityError(ValueError):
    """Checkpoint bytes are corrupt, truncated, or not a checkpoint."""


class VersionError(IntegrityError):
    """Checkpoint was written by an incompatible format version."""


def text_lines(path, error: type[Exception]):
    """Yield (line number, line) of a UTF-8 text file, split as open() splits
    it.  A line that is not UTF-8 raises `error` naming the file and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line

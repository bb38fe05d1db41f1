"""Fixed validation tolerances, resource budgets and the input-field reader.

DEFAULT_TOLS holds the tolerances linalg, qinfo and QuantumStrategy.validate
check states, measurements and spectra against; code reads its fields and no
function takes a tolerance argument.  Slacks local to one construction are
literals beside it (games' distribution checks, the purification rule).
_load_json reads a JSON input document (a game, a simulate config, a state
spec), and _field reads one field of it; both turn malformed input into a
ValueError that names the file or the field.  _canonical_json is the one
JSON text every output file is written as.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VERSION = "0.1.0"


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical validation tolerances."""

    herm: float = 1e-9       # max |A - A^dag| entry for Hermitian inputs
    trace: float = 1e-9      # unit-trace slack for density operators
    psd: float = 1e-9        # most negative admissible eigenvalue
    norm: float = 1e-9       # pure-state normalization slack
    proj: float = 1e-8       # projector idempotence / completeness slack
    support: float = 1e-10   # eigenvalue cutoff deciding support (infinity decisions)
    zero_eig: float = 1e-12  # eigenvalues below this contribute 0 to entropies


DEFAULT_TOLS = Tolerances()

# Hard caps guarding against runaway instance sizes.
MAX_KRON_DIM = 1 << 20       # largest dimension a kron result may have
MAX_ENUMERATION = 10**6      # deterministic maps per side in classical_value
MAX_TABLE_ENTRIES = 10**8    # predicate-table entries for repeated games


class BudgetError(RuntimeError):
    """Instance exceeds a configured enumeration or memory budget."""


_REQUIRED = object()     # _field default of a field that must be given


def _field(what: str, doc: dict, key: str, conv, default=_REQUIRED):
    """conv(doc[key]) for a field of the input document named by what.

    A missing or null field gives default (which may be None), or, for a
    required field, an input error naming the field; a value conv rejects is
    an input error too.
    """
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{what} missing field {key!r}")
        return default
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} field {key!r} has an invalid value") from None


def _integer(value) -> int:
    """int(value), refusing a boolean, a string and a fractional part such as 2.5."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _real(value) -> float:
    """float(value), refusing a boolean and a string."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _seed(value) -> int:
    """_integer(value), refusing a negative seed."""
    seed = _integer(value)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return seed


def _string(value) -> str:
    """value itself, refusing anything but a string."""
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _table(value) -> np.ndarray:
    """value as an array of numbers, refusing booleans, strings and ragged lists."""
    table = np.array(value)
    if table.dtype.kind not in "iuf" or any(
            isinstance(v, bool) for v in np.array(value, dtype=object).flat):
        raise ValueError("a table must hold numbers only")
    return table


def _canonical_json(obj) -> str:
    """The text of an output JSON file: sorted keys, two-space indent, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_json(path) -> object:
    """The JSON document in path.  A file that cannot be read or parsed is a
    ValueError; a missing one raises FileNotFoundError, which the CLI reports
    as an input error too."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"invalid JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc

"""Form package and points files (UTF-8 JSON).

Top-level fields of a form package:

    n               degree (positive integer)
    p               near-holomorphy degree (non-negative integer)
    level           positive integer N
    T_max           truncation bound on Tr(S) (number)
    rep             {"j": integer, "k": integer}
    growth          {"A": number, "kappa": number}
    coefficients    list of records, see below
    coset_reps      rejected: only the expansion at infinity is stored
    gamma_test_set  rejected: the library chooses the gamma that ``check``
                    tests (``forms.invariance_gammas``); an old file must
                    drop the key

Each coefficient record is

    {"beta": {"i,j": power, ...}, "S": [[...]], "value": [[re, im], ...]}

where "beta" uses 1-based upper-triangular pairs with integer powers, "S"
holds the integer matrix N*S (rationals are never stored as floats), and
"value" lists the d_rho coordinates as [re, im] pairs of numbers.  A points
file is a list of {"X": [[...]], "Y": [[...]]} records of numbers.

Integers are JSON numbers without fraction or exponent that fit int64, and
numbers any JSON numbers that fit a float; true, false and strings are
neither.  ``_read`` reads them all; the objects built check their ranges.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FormDataError
from .forms import FormPackage, FourierExpansion, trace_level
from .linalg import MultiIndex
from .reps import make_rep
from .symplectic import SiegelPoint


def _read(raw, where: str, integer: bool = False, shape: tuple | None = ()) -> np.ndarray:
    """``raw`` as an int64 (``integer``) or float64 array of ``shape`` (any if
    None; () is a scalar); FormDataError naming ``where`` unless its leaves are
    JSON integers (``integer``) or numbers in a rectangular nest of lists."""
    kind = "integer" if integer else "number"
    stack = [raw]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(reversed(x))  # the first bad leaf is named
        elif type(x) is not int and (integer or type(x) is not float):
            many = f"{kind}s" if isinstance(raw, list) else f"a{'n' * integer} {kind}"
            raise FormDataError(f"{where} must be {many}, got {x!r}")
    try:
        arr = np.array(raw, dtype=np.int64 if integer else float)
    except OverflowError:
        raise FormDataError(f"{where}: a value does not fit {'int64' if integer else 'a float'}")
    except ValueError:
        raise FormDataError(f"{where}: nested lists must be rectangular")
    if shape is not None and arr.shape != shape:
        raise FormDataError(f"{where}: expected shape {shape}, got {arr.shape}")
    return arr


def _parse_beta(n: int, raw, where: str) -> MultiIndex:
    if not isinstance(raw, dict):
        raise FormDataError(f"{where}: beta must be an object")
    entries: dict[tuple[int, int], int] = {}
    for key, power in raw.items():
        try:
            i_s, j_s = key.split(",")
            pair = (int(i_s), int(j_s))
        except (ValueError, AttributeError):
            raise FormDataError(f"{where}: malformed beta key {key!r}, expected 'i,j'")
        entries[pair] = _read(power, f"{where}: beta power for {key!r}", integer=True).item()
    try:
        return MultiIndex.from_dict(n, entries)
    except ValueError as exc:
        raise FormDataError(f"{where}: {exc}")


def package_from_dict(data: dict) -> FormPackage:
    for key in ("n", "p", "level", "T_max", "rep", "growth", "coefficients"):
        if key not in data:
            raise FormDataError(f"missing required field {key!r}")
    if "coset_reps" in data:
        raise FormDataError("coset_reps: per-cusp expansions are not supported")
    if "gamma_test_set" in data:
        raise FormDataError("gamma_test_set: the library chooses the gamma to test; drop the key")
    records = data["coefficients"]
    if not isinstance(records, list):
        raise FormDataError(f"coefficients must be a JSON array, got {json.dumps(records)[:40]}")
    n, p, level = (_read(data[key], key, integer=True).item() for key in ("n", "p", "level"))
    rep_raw = data["rep"]
    if not (isinstance(rep_raw, dict) and "j" in rep_raw and "k" in rep_raw):
        raise FormDataError("rep must be an object with fields j and k")
    j, k = _read([rep_raw["j"], rep_raw["k"]], "rep.j and rep.k", integer=True, shape=(2,)).tolist()
    try:
        rep = make_rep(n, j, k)
    except ValueError as exc:
        raise FormDataError(f"rep: {exc}")
    growth_raw = data["growth"]
    if not (isinstance(growth_raw, dict) and "A" in growth_raw and "kappa" in growth_raw):
        raise FormDataError("growth must be an object with fields A and kappa")
    t_max = _read(data["T_max"], "T_max").item()

    terms = []
    for idx, record in enumerate(records):
        where = f"coefficients[{idx}]"
        if not isinstance(record, dict):
            raise FormDataError(f"{where}: records must be objects")
        for fld in ("beta", "S", "value"):
            if fld not in record:
                raise FormDataError(f"{where}: missing field {fld!r}")
        beta = _parse_beta(n, record["beta"], where)
        s_int = _read(record["S"], f"{where}: S", integer=True, shape=None)
        pairs = _read(record["value"], f"{where}: value", shape=(rep.dim, 2))
        terms.append((beta, s_int, pairs.view(complex)[:, 0]))  # complex(re, im), bit for bit
    return FormPackage(
        FourierExpansion.from_terms(n, p, level, rep, t_max, terms),
        growth_a=_read(growth_raw["A"], "growth.A").item(),
        growth_kappa=_read(growth_raw["kappa"], "growth.kappa").item(),
    )


def package_to_dict(package: FormPackage) -> dict:
    exp_ = package.expansion
    records = []
    for (beta, skey), vec in sorted(
        exp_.coefficients.items(),
        key=lambda kv: (trace_level(kv[0][1]), kv[0][1], kv[0][0].powers),
    ):
        records.append(
            {
                "beta": {f"{i},{j}": b for i, j, b in beta.powers},
                "S": [list(row) for row in skey],
                "value": [[float(z.real), float(z.imag)] for z in vec],
            }
        )
    return {
        "n": exp_.n,
        "p": exp_.p,
        "level": exp_.level,
        "T_max": exp_.t_max,
        "rep": {"j": exp_.rep.j, "k": exp_.rep.k},
        "growth": {"A": package.growth_a, "kappa": package.growth_kappa},
        "coefficients": records,
    }


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormDataError(f"{path}: not valid JSON ({exc})")


def load_form_package(path) -> FormPackage:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FormDataError(f"{path}: top level must be a JSON object")
    return package_from_dict(data)


def load_points(path) -> list[SiegelPoint]:
    """The points of a points file, in order; FormDataError naming the
    record ``points[i]`` of a malformed one."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise FormDataError(f"{path}: a points file must hold a JSON list")
    if not data:
        raise FormDataError(f"{path}: the points file holds no points")
    points = []
    for idx, rec in enumerate(data):
        where = f"points[{idx}]"
        if not (isinstance(rec, dict) and "X" in rec and "Y" in rec):
            raise FormDataError(f"{where}: need objects with X and Y")
        x, y = (_read(rec[part], f"{where}: {part}", shape=None) for part in "XY")
        try:
            points.append(SiegelPoint(x, y))
        except ValueError as exc:
            raise FormDataError(f"{where}: {exc}")
    return points


def save_form_package(package: FormPackage, path) -> None:
    Path(path).write_text(
        json.dumps(package_to_dict(package), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

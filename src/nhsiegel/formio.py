"""Form package file format (UTF-8 JSON).

Top-level fields:

    n               degree (positive integer)
    p               near-holomorphy degree
    level           positive integer N
    T_max           truncation bound on Tr(S)
    rep             {"j": int, "k": int}
    growth          {"A": float, "kappa": float}
    gamma_test_set  list of 2n x 2n integer matrices
    coefficients    list of records, see below
    coset_reps      optional list of 2n x 2n integer matrices; parsed and
                    kept, but sweeps that estimate a constant reject a
                    non-identity one until per-cusp expansions exist

Each coefficient record is

    {"beta": {"i,j": power, ...}, "S": [[...]], "value": [[re, im], ...]}

where "beta" uses 1-based upper-triangular pairs, "S" holds the INTEGER
matrix N*S (rationals are never stored as floats), and "value" lists the
d_rho coordinates as [re, im] pairs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FormDataError
from .forms import FormPackage, FourierExpansion, trace_level
from .linalg import MultiIndex
from .reps import make_rep
from .symplectic import SymplecticMatrix


def _parse_beta(n: int, raw: dict, where: str) -> MultiIndex:
    entries: dict[tuple[int, int], int] = {}
    for key, power in raw.items():
        try:
            i_s, j_s = key.split(",")
            pair = (int(i_s), int(j_s))
        except (ValueError, AttributeError):
            raise FormDataError(f"{where}: malformed beta key {key!r}, expected 'i,j'")
        if not isinstance(power, int):
            raise FormDataError(f"{where}: beta power for {key!r} must be an integer")
        entries[pair] = power
    try:
        return MultiIndex.from_dict(n, entries)
    except ValueError as exc:
        raise FormDataError(f"{where}: {exc}")


def _parse_value(raw, dim: int, where: str) -> list[complex]:
    if not isinstance(raw, list) or len(raw) != dim:
        raise FormDataError(f"{where}: value must list {dim} [re, im] pairs")
    out = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise FormDataError(f"{where}: value entries must be [re, im] pairs")
        out.append(complex(float(entry[0]), float(entry[1])))
    return out


def _parse_s(raw, n: int, where: str) -> list[list[int]]:
    arr = raw
    if not (isinstance(arr, list) and len(arr) == n and all(isinstance(r, list) and len(r) == n for r in arr)):
        raise FormDataError(f"{where}: S must be an {n}x{n} integer matrix (N*S)")
    for row in arr:
        for x in row:
            if not isinstance(x, int):
                raise FormDataError(f"{where}: S entries must be integers (store N*S, not floats)")
    return arr


def _parse_gamma(raw, n: int, where: str) -> SymplecticMatrix:
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (2 * n, 2 * n):
        raise FormDataError(f"{where}: expected a {2*n}x{2*n} matrix")
    if float(np.max(np.abs(arr - np.round(arr)))) > 1e-9:
        raise FormDataError(f"{where}: entries must be integers")
    try:
        return SymplecticMatrix(np.round(arr))
    except ValueError as exc:
        raise FormDataError(f"{where}: {exc}")


def package_from_dict(data: dict) -> FormPackage:
    for key in ("n", "p", "level", "T_max", "rep", "growth", "gamma_test_set", "coefficients"):
        if key not in data:
            raise FormDataError(f"missing required field {key!r}")
    n = data["n"]
    p = data["p"]
    level = data["level"]
    if not (isinstance(n, int) and n >= 1):
        raise FormDataError("n must be a positive integer")
    if not (isinstance(p, int) and p >= 0):
        raise FormDataError("p must be a non-negative integer")
    if not (isinstance(level, int) and level >= 1):
        raise FormDataError("level must be a positive integer")
    rep_raw = data["rep"]
    if not (isinstance(rep_raw, dict) and "j" in rep_raw and "k" in rep_raw):
        raise FormDataError("rep must be an object with fields j and k")
    if not (isinstance(rep_raw["j"], int) and isinstance(rep_raw["k"], int)):
        raise FormDataError("rep.j and rep.k must be integers")
    rep = make_rep(n, rep_raw["j"], rep_raw["k"])
    growth_raw = data["growth"]
    if not (isinstance(growth_raw, dict) and "A" in growth_raw and "kappa" in growth_raw):
        raise FormDataError("growth must be an object with fields A and kappa")
    t_max = float(data["T_max"])

    terms = []
    for idx, record in enumerate(data["coefficients"]):
        where = f"coefficients[{idx}]"
        if not isinstance(record, dict):
            raise FormDataError(f"{where}: records must be objects")
        for fld in ("beta", "S", "value"):
            if fld not in record:
                raise FormDataError(f"{where}: missing field {fld!r}")
        beta = _parse_beta(n, record["beta"], where)
        s_int = _parse_s(record["S"], n, where)
        value = _parse_value(record["value"], rep.dim, where)
        terms.append((beta, s_int, value))
    expansion = FourierExpansion.from_terms(n, p, level, rep, t_max, terms)

    gammas = tuple(
        _parse_gamma(raw, n, f"gamma_test_set[{i}]")
        for i, raw in enumerate(data["gamma_test_set"])
    )
    coset = tuple(
        _parse_gamma(raw, n, f"coset_reps[{i}]")
        for i, raw in enumerate(data.get("coset_reps", []))
    )
    return FormPackage(
        expansion,
        gammas,
        growth_a=float(growth_raw["A"]),
        growth_kappa=float(growth_raw["kappa"]),
        coset_reps=coset,
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
    out = {
        "n": exp_.n,
        "p": exp_.p,
        "level": exp_.level,
        "T_max": exp_.t_max,
        "rep": {"j": exp_.rep.j, "k": exp_.rep.k},
        "growth": {"A": package.growth_a, "kappa": package.growth_kappa},
        "gamma_test_set": [
            [[int(x) for x in row] for row in g.mat] for g in package.gamma_test_set
        ],
        "coefficients": records,
    }
    nontrivial_coset = [
        g for g in package.coset_reps if not np.array_equal(g.mat, np.eye(2 * exp_.n))
    ]
    if nontrivial_coset:
        out["coset_reps"] = [
            [[int(x) for x in row] for row in g.mat] for g in nontrivial_coset
        ]
    return out


def load_form_package(path) -> FormPackage:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormDataError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise FormDataError(f"{path}: top level must be a JSON object")
    return package_from_dict(data)


def save_form_package(package: FormPackage, path) -> None:
    Path(path).write_text(
        json.dumps(package_to_dict(package), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

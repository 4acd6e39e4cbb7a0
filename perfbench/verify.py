"""Output checks: served rows against an offline draw of the same model.

Seeded responses must equal ``Synthesizer.sample(n, batch, seed)`` of
the saved model bit for bit (the sharded-seed contract).  The expected
values are decoded here, from the table's codes and the *response's*
schema, independently of :mod:`repro.serve.encoding`, so an encoding
fault cannot hide behind itself.  Each check returns a list of problems;
an empty list means the response passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Optional


def expected_columns(table, schema_payload: dict) -> Dict[str, list]:
    """Decode ``table`` (category codes + numbers) with the response's
    schema: category labels by code, integral columns rounded."""
    out = {}
    for column in schema_payload["columns"]:
        values = table.column(column["name"])
        if column["kind"] == "categorical":
            labels = column["categories"]
            out[column["name"]] = [labels[int(code)] for code in values]
        elif column.get("integral"):
            out[column["name"]] = [int(round(float(v))) for v in values]
        else:
            out[column["name"]] = [float(v) for v in values]
    return out


def check_json_seeded(payload: dict, expected_table, n: int,
                      seed: int) -> List[str]:
    problems = []
    if payload.get("n") != n:
        problems.append(f"n={payload.get('n')} expected {n}")
    if payload.get("seed") != seed:
        problems.append(f"seed echo {payload.get('seed')} expected {seed}")
    expected = expected_columns(expected_table, payload["schema"])
    got = payload.get("columns", {})
    if list(got) != list(expected):
        problems.append(f"columns {list(got)} expected {list(expected)}")
        return problems
    for name, values in expected.items():
        if got[name] != values:
            bad = next(i for i, (a, b) in enumerate(zip(got[name], values))
                       if a != b) if len(got[name]) == len(values) else None
            problems.append(f"column {name!r} differs from the offline "
                            f"draw (first at row {bad})")
    return problems


def check_json_unseeded(payload: dict, schema, n: int) -> List[str]:
    """Row count, column names and category domains against the model's
    schema (unseeded rows have no offline counterpart)."""
    problems = []
    if payload.get("n") != n:
        problems.append(f"n={payload.get('n')} expected {n}")
    columns = payload.get("columns", {})
    if list(columns) != list(schema.names):
        return problems + [f"columns {list(columns)} expected "
                           f"{list(schema.names)}"]
    for attribute in schema:
        values = columns[attribute.name]
        if len(values) != n:
            problems.append(f"column {attribute.name!r} has {len(values)} "
                            f"rows, expected {n}")
        elif attribute.is_categorical:
            domain = set(attribute.categories)
            outside = [v for v in values if v not in domain]
            if outside:
                problems.append(f"column {attribute.name!r} has values "
                                f"outside its domain: {outside[:3]}")
        elif not all(isinstance(v, (int, float)) and math.isfinite(v)
                     for v in values):
            problems.append(f"column {attribute.name!r} has a non-finite "
                            "or non-numeric value")
    return problems


def parse_csv(body: bytes) -> List[List[str]]:
    return list(csv.reader(io.StringIO(body.decode("utf-8"))))


def check_csv_seeded(body: bytes, expected_table, schema_payload: dict,
                     n: int) -> List[str]:
    """A CSV body must parse back into exactly the offline draw."""
    problems = []
    try:
        rows = parse_csv(body)
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"CSV does not parse: {exc}"]
    expected = expected_columns(expected_table, schema_payload)
    names = list(expected)
    if not rows or rows[0] != names:
        return [f"CSV header {rows[:1]} expected {names}"]
    if len(rows) - 1 != n:
        problems.append(f"CSV has {len(rows) - 1} rows, expected {n}")
        return problems
    kinds = {c["name"]: c for c in schema_payload["columns"]}
    for j, name in enumerate(names):
        column = [row[j] for row in rows[1:]]
        spec = kinds[name]
        try:
            if spec["kind"] == "categorical":
                got = column
            elif spec.get("integral"):
                got = [int(v) for v in column]
            else:
                got = [float(v) for v in column]
        except ValueError as exc:
            problems.append(f"CSV column {name!r} does not parse: {exc}")
            continue
        if got != expected[name]:
            problems.append(f"CSV column {name!r} differs from the "
                            "offline draw")
    return problems


def decode_json(body: bytes) -> Optional[dict]:
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None

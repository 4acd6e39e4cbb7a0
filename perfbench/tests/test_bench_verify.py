"""The output verifier accepts the server's encoding of the expected draw
and rejects corrupted responses; the HTTP parser checks chunk framing."""

import copy
import json

import numpy as np
import pytest

from perfbench.httpclient import ProtocolError, ResponseParser
from perfbench.serving import parse_prometheus, series_total
from perfbench.verify import (
    check_csv_seeded, check_json_seeded, check_json_unseeded,
)
from repro.datasets.schema import Attribute, CATEGORICAL, NUMERICAL, Schema, Table
from repro.serve.encoding import columns_payload, csv_stream, schema_payload


def _table(n=40, seed=0):
    rng = np.random.default_rng(seed)
    schema = Schema(attributes=(
        Attribute("age", NUMERICAL, integral=True),
        Attribute("score", NUMERICAL),
        Attribute("job", CATEGORICAL, categories=("eng", "doc", "art")),
    ))
    return Table(schema, {"age": rng.normal(40, 9, n),
                          "score": rng.normal(0, 1, n),
                          "job": rng.integers(0, 3, n)})


def _json_response(table, seed):
    # What the server sends, through its own encoder.
    return json.loads(json.dumps({
        "model": "m", "n": len(table), "seed": seed,
        "schema": schema_payload(table.schema),
        "columns": columns_payload(table)}))


def test_seeded_json_matches_offline_draw():
    table = _table()
    assert check_json_seeded(_json_response(table, 7), table, 40, 7) == []


@pytest.mark.parametrize("corrupt", [
    lambda p: p["columns"]["score"].__setitem__(3, p["columns"]["score"][3]
                                                + 1e-12),
    lambda p: p["columns"]["job"].__setitem__(0, "zzz"),
    lambda p: p["columns"]["age"].pop(),
    lambda p: p.__setitem__("seed", 8),
    lambda p: p["columns"].pop("job"),
])
def test_seeded_json_rejects_corruption(corrupt):
    table = _table()
    payload = _json_response(table, 7)
    corrupt(payload)
    assert check_json_seeded(payload, table, 40, 7)


def test_seeded_json_rejects_a_different_draw():
    payload = _json_response(_table(seed=1), 7)
    assert check_json_seeded(payload, _table(seed=2), 40, 7)


def test_unseeded_json_checks_count_names_and_domains():
    table = _table()
    good = _json_response(table, None)
    assert check_json_unseeded(good, table.schema, 40) == []
    bad = copy.deepcopy(good)
    bad["columns"]["job"][5] = "pilot"
    assert check_json_unseeded(bad, table.schema, 40)
    assert check_json_unseeded(good, table.schema, 41)
    bad = copy.deepcopy(good)
    bad["columns"]["score"][0] = float("nan")
    assert check_json_unseeded(bad, table.schema, 40)


def test_csv_round_trip_and_corruption():
    table = _table()
    body = "".join(csv_stream([table], table.schema)).encode()
    schema = schema_payload(table.schema)
    assert check_csv_seeded(body, table, schema, 40) == []
    lines = body.decode().splitlines(keepends=True)
    assert check_csv_seeded("".join(lines[:-1]).encode(), table, schema, 40)
    fields = lines[4].split(",")
    fields[1] = str(float(fields[1]) * 2 + 1)
    lines[4] = ",".join(fields)
    assert check_csv_seeded("".join(lines).encode(), table, schema, 40)


def _chunked(payload: bytes, terminal=True) -> bytes:
    head = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Type: text/csv\r\n\r\n")
    body = b"".join(b"%x\r\n%s\r\n" % (len(part), part)
                    for part in (payload[:5], payload[5:]))
    return head + body + (b"0\r\n\r\n" if terminal else b"")


def test_parser_requires_the_terminal_chunk():
    parser = ResponseParser()
    data = _chunked(b"a,b\n1,2\n")
    for i in range(0, len(data), 3):   # arbitrary segment boundaries
        parser.feed(data[i:i + 3])
    assert parser.complete and parser.terminal_chunk
    assert parser.body == b"a,b\n1,2\n"
    truncated = ResponseParser()
    truncated.feed(_chunked(b"a,b\n1,2\n", terminal=False))
    assert not truncated.complete and not truncated.terminal_chunk


def test_parser_content_length_and_bad_framing():
    parser = ResponseParser()
    parser.feed(b"HTTP/1.1 503 X\r\nContent-Length: 2\r\n\r\nok")
    assert parser.complete and parser.status == 503 and parser.body == b"ok"
    with pytest.raises(ProtocolError):
        ResponseParser().feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                              b"chunked\r\n\r\nzz\r\n")


def test_prometheus_series_totals():
    text = ("# TYPE x counter\n"
            'repro_serve_requests_total{model="m",endpoint="sample"} 3\n'
            'repro_serve_requests_total{model="m",endpoint="sample_iter"} 2\n'
            "repro_batcher_coalesce_size_count 4\n")
    snap = parse_prometheus(text)
    assert series_total(snap, "repro_serve_requests_total") == 5
    assert series_total(snap, "repro_serve_requests_total",
                        endpoint="sample_iter") == 2
    assert series_total(snap, "repro_batcher_coalesce_size_count") == 4
    assert series_total(snap, "missing") == 0

"""The outputs of byte_manifest.py's set, regenerated and compared with the
committed byte_manifest.json.  Where numpy's version, the machine and the
SIMD targets numpy dispatches to are those the manifest was written on, every
output must keep its SHA-256.  Elsewhere numpy's vector loops may round
differently, so the CSVs are compared by value only: same columns and rows,
and each column's exact sum within ULPS units in the last place of the
column's scale per row.  The values are compared on every platform."""

import json

import numpy as np

import byte_manifest

ULPS = 64


def test_outputs_match_manifest(tmp_path, capsys):
    want = json.loads(byte_manifest.MANIFEST.read_text(encoding="utf-8"))
    paths = byte_manifest.generate(tmp_path)
    assert [p.name for p in paths] == list(want["outputs"])
    same_platform = want["platform"] == byte_manifest.platform_key()
    for path in paths:
        got, expected = byte_manifest.describe(path), want["outputs"][path.name]
        if same_platform or path.suffix != ".csv":
            assert got["sha256"] == expected["sha256"], path.name
        if path.suffix != ".csv":
            continue
        assert (got["columns"], got["rows"]) == (expected["columns"], expected["rows"]), path.name
        value_scale = max(expected["scales"][1:])
        for k, (s, t) in enumerate(zip(got["sums"], expected["sums"])):
            scale = expected["scales"][0] if k == 0 else value_scale
            bound = ULPS * np.finfo(float).eps * scale * expected["rows"]
            assert abs(s - t) <= bound, (path.name, expected["columns"][k], s, t)
    if not same_platform:
        with capsys.disabled():
            print(f"\nbyte manifest written on {want['platform']}, run on "
                  f"{byte_manifest.platform_key()}: CSVs compared by value "
                  f"within {ULPS} ulps, not byte for byte")

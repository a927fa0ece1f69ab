"""Records of census and cyclic covers pinned by SHA-256.

A change that is meant to keep every record, such as a faster flat-group
or abelianization pass, must keep these digests: `census --jobs 1` over
the 183 manifold codes of the benchmark pool, and `cover 14FF28 --cyclic
n` for n = 1..15 without and with `--classify-filling`.  The records are
hashed as JSON with sorted keys and no spaces.  A change that moves a
record on purpose updates the digest and says which field moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hyper4.cli import main

POOL = Path(__file__).parent.parent / "perfbench" / "data" / "pool.tsv"

CENSUS_DIGEST = "a2b41174268df17d067fc9f45a4790fe1622b1ae9d30a0e900de3470a796e662"
COVER_DIGEST = "71c24fb26db7928ea0aaac1d3b5cc16b21d5f5639b8e0e82f42cdff9b93ba491"
FILLED_COVER_DIGEST = "44b418af94d8f8757a16b4b4536287f318c38786212ed75cebf05192b9c6c345"


def _records(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return json.loads(out.getvalue())["records"]


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_pool_census_records_digest(tmp_path):
    rows = [line.split() for line in POOL.read_text().splitlines() if not line.startswith("#")]
    codes = [row[0] for row in rows if row[1] == "M"]
    assert len(codes) == 183
    path = tmp_path / "pool_m.txt"
    path.write_text("\n".join(codes) + "\n")
    records = _records(["census", str(path), "--jobs", "1"])
    assert len(records) == 183
    assert _digest(records) == CENSUS_DIGEST


def test_cyclic_cover_records_digest():
    covers = [_records(["cover", "14FF28", "--cyclic", str(n)]) for n in range(1, 16)]
    assert _digest(covers) == COVER_DIGEST


def test_filled_cyclic_cover_records_digest():
    covers = [
        _records(["cover", "14FF28", "--cyclic", str(n), "--classify-filling"])
        for n in range(1, 16)
    ]
    assert _digest(covers) == FILLED_COVER_DIGEST

"""Records of census and cyclic covers, and rejection messages, pinned
by SHA-256.

A change that is meant to keep every record, such as a faster flat-group
or abelianization pass, must keep these digests: `census --jobs 1` over
the 183 manifold codes of the benchmark pool, and `cover 14FF28 --cyclic
n` for n = 1..15 without and with `--classify-filling`.  One that is
meant to keep every verdict, such as a faster face walk, must keep the
digest of the errors of `census --jobs 1` over the pool's 3816 rejected
codes: the benchmark accepts any message for a rejected code, so nothing
else pins them.  Records and errors are hashed as JSON with sorted keys
and no spaces.  A change that moves one on purpose updates the digest
and says which field moved.
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
REJECTED_DIGEST = "f0fc7600b371582001e2c10675bb228544d254d27aff816ee1e3644b00031c7f"


def _envelope(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return json.loads(out.getvalue())


def _records(argv: list[str]) -> list:
    return _envelope(argv)["records"]


def _pool_census(tmp_path, verdict: str) -> dict:
    """The envelope of `census --jobs 1` over the pool codes of one
    class: M manifold, R rejected."""
    rows = [line.split() for line in POOL.read_text().splitlines() if not line.startswith("#")]
    path = tmp_path / f"pool_{verdict}.txt"
    path.write_text("\n".join(row[0] for row in rows if row[1] == verdict) + "\n")
    return _envelope(["census", str(path), "--jobs", "1"])


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_pool_census_records_digest(tmp_path):
    doc = _pool_census(tmp_path, "M")
    assert (len(doc["records"]), doc["errors"]) == (183, [])
    assert _digest(doc["records"]) == CENSUS_DIGEST


def test_pool_rejected_messages_digest(tmp_path):
    doc = _pool_census(tmp_path, "R")
    assert (len(doc["records"]), len(doc["errors"])) == (0, 3816)
    assert _digest(doc["errors"]) == REJECTED_DIGEST


def test_cyclic_cover_records_digest():
    covers = [_records(["cover", "14FF28", "--cyclic", str(n)]) for n in range(1, 16)]
    assert _digest(covers) == COVER_DIGEST


def test_filled_cyclic_cover_records_digest():
    covers = [
        _records(["cover", "14FF28", "--cyclic", str(n), "--classify-filling"])
        for n in range(1, 16)
    ]
    assert _digest(covers) == FILLED_COVER_DIGEST

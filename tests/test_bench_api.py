"""The benchmark in bench/ calls the public API by name and changes only
together with its own reference data, so an API rename would surface only
when a benchmark run breaks.  This test resolves every ``lb.<name>`` the
benchmark worker uses instead."""

import re
from pathlib import Path

import letterbraid
import letterbraid.cli  # noqa: F401  (the worker calls lb.cli.main)

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def test_every_name_the_benchmark_worker_uses_resolves():
    text = WORKER.read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\blb\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text)))
    assert len(names) > 20, names
    missing = []
    for dotted in names:
        obj = letterbraid
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                missing.append(dotted)
                break
    assert not missing, f"bench/worker.py uses names letterbraid lacks: {missing}"

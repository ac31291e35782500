"""One fresh interpreter: a set-up probe or a job of CLI commands.

    python3 crnperf/job.py probe MODEL PROPERTY
    python3 crnperf/job.py job SPEC_JSON

A probe imports the CLI, loads a model and a property, enumerates the
states and builds the until evaluator, then exits; its parent times it
from start to exit.  A job imports the CLI once and runs every command of
its spec through ``crnverify.cli.main`` in this one process.  Either mode
prints one JSON line with its measurements.  ``src`` must be importable
(the parent sets PYTHONPATH).
"""

import contextlib
import io
import json
import resource
import sys
import time


def probe(model: str, prop: str) -> dict:
    t0 = time.perf_counter()
    import crnverify.cli  # noqa: F401  (the import every command pays)
    from crnverify.crn_text import load_crn
    from crnverify.csl import parse_csl
    from crnverify.model import enumerate_states
    from crnverify.transient import evaluator_for

    t1 = time.perf_counter()
    pcrn = load_crn(model)
    formula = parse_csl(prop)
    t2 = time.perf_counter()
    enumerate_states(pcrn)
    t3 = time.perf_counter()
    evaluator_for(pcrn, formula)
    t4 = time.perf_counter()
    return {"import_s": t1 - t0, "enumerate_s": t3 - t2, "evaluator_s": t4 - t3}


def job(spec_path: str) -> dict:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    from crnverify import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in spec["commands"]:
            codes.append(cli.main(argv))
    job_s = time.perf_counter() - start
    out = {
        "codes": codes,
        "job_s": job_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "log": sink.getvalue()[-2000:],
    }
    if tracer is not None:
        out["layers"] = tracer.layers(job_s)
    return out


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    result = probe(*rest) if mode == "probe" else job(*rest)
    print(json.dumps(result))

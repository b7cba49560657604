"""The ledger's sources, as (name, instance JSON document) pairs: the
gallery's curated cases, the K corpus (tests/k_corpus.py, seeds 0-1599) and
the certify documents of one benchmark certify cycle per seed 11-20.  Within
one_solve(), cli's solve runs once per document and configuration for the
life of the process, so the ledger's rows and the probes share their solves.
"""

import contextlib
import copy
import sys
from pathlib import Path
from unittest import mock

import orjson

from calmcert import cli
from calmcert.certificates import certify_primal_dual
from calmcert.gallery import curated_cases
from calmcert.model import instance_hash, load_instance
from calmcert.solver import kkt_bound, kkt_residual, kkt_within, pair_config

from k_corpus import corpus_doc

ROOT = Path(__file__).resolve().parents[1]          # holds perfbench
CORPUS_SEEDS = range(1600)
BENCH_SEEDS = range(11, 21)
_PAIRS = {}


def gallery_documents():
    return [(f"gallery/{case['name']}", case["instance"])
            for case in curated_cases()]


def corpus_documents(seeds=CORPUS_SEEDS):
    return [(f"k_corpus/{seed}", corpus_doc(seed)) for seed in seeds]


def bench_ops(workload, seed):
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.instances import build
    return build(workload, seed)


def bench_documents(seeds=BENCH_SEEDS):
    return [(f"perfbench/{seed}/{op['name']}", op["doc"])
            for seed in seeds for op in bench_ops("certify", seed)
            if op["verb"] in ("certify", "certify-pd")]


def documents():
    return gallery_documents() + corpus_documents() + bench_documents()


@contextlib.contextmanager
def one_solve():
    """cli's solve, made once per (instance hash, configuration): each call
    gets its own copy of the pair.  A solve that raises is not kept."""
    solve = cli.solve

    def once(instance, cfg=None):
        key = (instance_hash(instance), repr(cfg))
        if key not in _PAIRS:
            _PAIRS[key] = solve(instance, cfg)
        return copy.deepcopy(_PAIRS[key])
    with mock.patch.object(cli, "solve", once):
        yield


def alternate_multipliers_verify(doc, t):
    """Whether (x_bar, y_bar + t eta) passes the probe's KKT bound (level
    10), for the pair that cli solves (within one_solve) and eta the srcq
    witness of certify_primal_dual; False when srcq has no witness."""
    instance = load_instance(orjson.dumps(doc))
    with one_solve():
        pair = cli.solve(instance, pair_config(instance))
    eta = certify_primal_dual(instance, pair).srcq.witness
    return eta is not None and kkt_within(
        kkt_residual(instance, pair.x_bar, pair.y_bar + t * eta),
        kkt_bound(instance, 10))

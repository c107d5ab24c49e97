"""End-to-end acceptance checks.

Each test prints one `CRITERION NN PASS/FAIL/SKIP: ...` line with the
measured values, bypassing capture so the lines land in plain pytest output.
Criteria that need the Cora/Citeseer files skip when the files are absent
(see conftest.require_dataset); those have synthetic stand-in halves that
always run.
"""

import csv
import json
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import require_dataset
from streams import default_stream
from taam.checkpoint import load_checkpoint
from taam.config import make_config
from taam.datasets import resolve_dataset
from taam.graph import generate_sbm
from taam.harness import (average_accuracy, average_forgetting, build_stream,
                          run_continual, write_matrix_csv)
from taam.training import end_to_end_grad_check

SBM_3TASK = "sbm:classes=6,npc=60,p_in=0.1,p_out=0.02,dim=32,sep=10"


@pytest.fixture
def line(request):
    cap = request.config.pluginmanager.getplugin("capturemanager")

    def _line(msg):
        with cap.global_and_fixture_disabled():
            print(msg, flush=True)

    return _line


def report(line, num, ok, detail):
    line(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def stream_for(cfg, classes_per_task=2):
    g = resolve_dataset(cfg.dataset, cfg.seed, cfg.row_normalize)
    return build_stream(
        g,
        classes_per_task=classes_per_task,
        seed=cfg.seed,
        shuffle_classes=cfg.shuffle_classes,
        train_frac=cfg.train_frac,
        val_frac=cfg.val_frac,
    )


@lru_cache(maxsize=None)
def canonical_run(method, ablation, seed=0):
    """Default-config run on the separable 3-task stream, cached across criteria."""
    cfg = make_config({}, {"dataset": SBM_3TASK, "seed": seed,
                           "method": method, "ablation": ablation})
    return run_continual(stream_for(cfg), cfg), cfg


def test_criterion_01_gradients_match_finite_differences(line):
    t0 = time.perf_counter()
    errs = [end_to_end_grad_check(seed) for seed in range(20)]
    elapsed = time.perf_counter() - t0
    worst = max(errs)
    ok = worst <= 1e-4 and elapsed < 60.0
    report(line, 1, ok,
           f"worst relative error {worst:.3e} over 20 seeded instances "
           f"in {elapsed:.1f}s (bounds 1e-4, 60s)")


def test_criterion_02_separable_stream_no_forgetting(line):
    t0 = time.perf_counter()
    res, _ = canonical_run("taam", "full")
    elapsed = time.perf_counter() - t0
    retrieval_perfect = all(v == 100.0 for v in res.per_stage_retrieval)
    columns_constant = all(
        np.all(res.matrix[j:, j] == res.matrix[j, j]) for j in range(3)
    )
    ok = (retrieval_perfect and res.af == 0.0 and columns_constant
          and elapsed < 60.0)
    report(line, 2, ok,
           f"retrieval per stage {res.per_stage_retrieval}, AF={res.af!r}, "
           f"columns constant={columns_constant}, {elapsed:.1f}s (bound 60s)")


def test_criterion_03_perfect_retrieval_equals_oracle(line):
    res, _ = canonical_run("taam", "full")
    oracle, _ = canonical_run("oracle", "full")
    retrieval_perfect = all(v == 100.0 for v in res.per_stage_retrieval)
    matrices_equal = np.array_equal(res.matrix, oracle.matrix, equal_nan=True)
    ok = retrieval_perfect and matrices_equal and res.aa == oracle.aa and res.af == oracle.af
    report(line, 3, ok,
           f"retrieval 100% at every stage={retrieval_perfect}, "
           f"matrix bitwise equal to oracle={matrices_equal}")


def _citation_accuracy(line, num, name, floor):
    prefix = dataset_prefix_or_skip(line, num, name)
    t0 = time.perf_counter()
    aas = []
    for seed in range(3):
        cfg = make_config({}, {"dataset": prefix, "seed": seed})
        res = run_continual(stream_for(cfg), cfg)
        aas.append(res.aa)
    elapsed = time.perf_counter() - t0
    mean_aa = float(np.mean(aas))
    ok = mean_aa >= floor and elapsed < 180.0
    report(line, num, ok,
           f"{name} mean AA {mean_aa:.2f} over seeds 0-2 (floor {floor}), "
           f"{elapsed:.1f}s (bound 180s)")


def dataset_prefix_or_skip(line, num, name):
    from conftest import dataset_prefix
    prefix = dataset_prefix(name)
    if prefix is None:
        line(f"CRITERION {num:02d} SKIP: {name} files not present "
             f"(see conftest.require_dataset for the expected layout)")
        require_dataset(name)
    return prefix


def test_criterion_04_cora_accuracy(line):
    _citation_accuracy(line, 4, "cora", 94.0)


def test_criterion_05_citeseer_accuracy(line):
    _citation_accuracy(line, 5, "citeseer", 81.0)


def test_criterion_06_finetune_forgets_citeseer(line):
    prefix = dataset_prefix_or_skip(line, 6, "citeseer")
    cfg = make_config({}, {"dataset": prefix, "seed": 0, "method": "finetune"})
    res = run_continual(stream_for(cfg), cfg)
    ok = res.af >= 50.0
    report(line, 6, ok, f"citeseer finetune AF {res.af:.2f} (floor 50)")


def test_criterion_06_finetune_forgets_synthetic_standin(line):
    res, _ = canonical_run("finetune", "full")
    ok = res.af >= 50.0
    report(line, 6, ok,
           f"synthetic stand-in: finetune AF {res.af:.2f} (floor 50); "
           f"final-stage accuracy on task 1 was {res.matrix[-1, 0]:.2f}")


def test_criterion_07_ablations_separate_the_two_mechanisms(line):
    nsm, _ = canonical_run("taam", "nsm_only")
    full, _ = canonical_run("taam", "full")
    ronly, _ = canonical_run("taam", "retrieval_only")
    ok = nsm.aa <= 40.0 and full.aa >= 90.0 and ronly.af == 0.0
    report(line, 7, ok,
           f"same stream: nsm_only AA {nsm.aa:.2f} (cap 40), "
           f"full AA {full.aa:.2f} (floor 90), "
           f"retrieval restored AF to {ronly.af!r}")


def _duplicated_means(dim=16, sep=10.0):
    base = np.zeros((4, dim))
    for c in range(4):
        base[c, c] = sep / np.sqrt(2.0)
    return np.vstack([base, base])


def _shared_feature_stream(seed):
    g = generate_sbm(8, 40, 0.1, 0.02, 16, 10.0, seed, class_means=_duplicated_means())
    return default_stream(g, classes_per_task=2, seed=seed)


def test_criterion_08_warm_start_picks_distribution_matched_donor(line):
    matched = 0
    for seed in range(20):
        cfg = make_config({}, {"dataset": "sbm-shared-means", "seed": seed,
                               "epochs": 1, "hidden_dim": 16})
        res = run_continual(_shared_feature_stream(seed), cfg)
        matched += res.donors[2] == 1 and res.donors[3] == 2
    deltas = []
    for seed in range(3):
        aa = {}
        for ablation in ("full", "retrieval_only"):
            cfg = make_config({}, {"dataset": "sbm-shared-means", "seed": seed,
                                   "ablation": ablation})
            aa[ablation] = run_continual(_shared_feature_stream(seed), cfg).aa
        deltas.append(aa["full"] - aa["retrieval_only"])
    ok = matched >= 18
    report(line, 8, ok,
           f"matched donor picked in {matched}/20 seeds (floor 18/20); "
           f"AA delta of warm start vs fresh init: {float(np.mean(deltas)):+.2f} "
           f"points over 3 seeds (reported, not thresholded)")


def test_criterion_09_metrics_recomputable_from_emitted_csv(line, tmp_path):
    hand = np.array([[90.0, np.nan], [80.0, 85.0]])
    hand_ok = average_forgetting(hand) == 10.0 and average_accuracy(hand) == 82.5

    res, _ = canonical_run("taam", "full")
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, res.matrix, res.completed)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cells = [[float(c) for c in row[1:] if c] for row in rows[1:]]
    final = cells[-1]
    aa = sum(final) / len(final)
    drops = [cells[j][j] - final[j] for j in range(len(cells) - 1)]
    af = sum(drops) / len(drops)
    csv_ok = aa == res.aa and af == res.af
    ok = hand_ok and csv_ok
    report(line, 9, ok,
           f"hand matrix AF==10.0 and AA==82.5: {hand_ok}; "
           f"AA/AF recomputed from the CSV match the run exactly: {csv_ok}")


def _repeat_and_resume(cfg_overrides, tmp_path):
    cfg = make_config({}, cfg_overrides)
    full = run_continual(stream_for(cfg), cfg, checkpoint_path=tmp_path / "a.bin")
    again = run_continual(stream_for(cfg), cfg, checkpoint_path=tmp_path / "b.bin")

    repeat_ok = (
        (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        and np.array_equal(full.matrix, again.matrix, equal_nan=True)
    )
    s1, s2 = full.summary(cfg), again.summary(cfg)
    s1.pop("wall_time_seconds"), s2.pop("wall_time_seconds")
    repeat_ok = repeat_ok and s1 == s2

    run_continual(stream_for(cfg), cfg, checkpoint_path=tmp_path / "part.bin",
                  stop_after=2)
    resumed = run_continual(stream_for(cfg), cfg,
                            resume=load_checkpoint(tmp_path / "part.bin"),
                            checkpoint_path=tmp_path / "c.bin")
    resume_ok = (
        (tmp_path / "a.bin").read_bytes() == (tmp_path / "c.bin").read_bytes()
        and np.array_equal(full.matrix, resumed.matrix, equal_nan=True)
    )
    return repeat_ok, resume_ok


def test_criterion_10_repeat_and_resume_bitwise_synthetic(line, tmp_path):
    repeat_ok, resume_ok = _repeat_and_resume(
        {"dataset": SBM_3TASK, "seed": 0}, tmp_path)
    ok = repeat_ok and resume_ok
    report(line, 10, ok,
           f"synthetic stand-in: identical-seed reruns bitwise equal={repeat_ok}, "
           f"mid-stream resume equals uninterrupted run={resume_ok}")


def test_criterion_10_repeat_and_resume_bitwise_citeseer(line, tmp_path):
    prefix = dataset_prefix_or_skip(line, 10, "citeseer")
    repeat_ok, resume_ok = _repeat_and_resume({"dataset": prefix, "seed": 0}, tmp_path)
    ok = repeat_ok and resume_ok
    report(line, 10, ok,
           f"citeseer: identical-seed reruns bitwise equal={repeat_ok}, "
           f"mid-stream resume equals uninterrupted run={resume_ok}")

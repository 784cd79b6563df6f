"""Output checks for the benchmark, computed apart from the program.

Every check returns a list of failure messages; an empty list means the
outputs passed. The reference computations use plain dense numpy and the
benchmark's own graph code (edge lists, BFS egos, normalised adjacency),
so a fault in the package's sparse or tape paths cannot hide itself.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# cosine scores closer than this are a tie whose argmax may go either way
# between two summation orders
TIE_GAP = 1e-9
LIPSCHITZ_RTOL = 1e-5


def dense_a_hat(num_nodes: int, edges) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 as a dense matrix."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a = np.eye(num_nodes)
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    scale = 1.0 / np.sqrt(a.sum(axis=1))
    return a * scale[:, None] * scale[None, :]


def read_edges(path) -> np.ndarray:
    """``u v`` lines, ``#`` comments, as an (m, 2) int array."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0].split()
            if text:
                rows.append((int(text[0]), int(text[1])))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def ego(num_nodes: int, edges, center: int, hops: int):
    """Sorted node ids within ``hops`` of ``center`` and their induced
    edges relabelled to local ids."""
    nbrs = [[] for _ in range(num_nodes)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    depth = {center: 0}
    queue = deque([center])
    while queue:
        u = queue.popleft()
        if depth[u] == hops:
            continue
        for v in nbrs[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    nodes = sorted(depth)
    local = {g: i for i, g in enumerate(nodes)}
    sub_edges = [(local[u], local[v]) for u, v in edges if u in local and v in local]
    return nodes, sub_edges


def episode_reference(a_hat, features, centers, alpha, w1, w2, task):
    """(correct, ties) for one node-mode episode by the dense forward pass.

    Prompt p = sum_k alpha_k c_k scales every feature row; the encoder is
    A relu(A X W1) W2; prototypes are class means of support rows; each
    query takes the class of highest cosine. ``ties`` counts queries whose
    two best cosines are within TIE_GAP.
    """
    x = np.asarray(features, dtype=np.float64) * (np.asarray(alpha) @ np.asarray(centers))
    h = a_hat @ np.maximum(a_hat @ (x @ w1), 0.0) @ w2
    protos = np.stack(
        [
            h[[n for n, y in task.support if y == c]].mean(axis=0)
            for c in range(task.num_classes)
        ]
    )
    query = np.array([n for n, _ in task.query], dtype=np.int64)
    labels = np.array([y for _, y in task.query], dtype=np.int64)
    q = h[query]
    sims = (q @ protos.T) / np.outer(
        np.sqrt((q * q).sum(axis=1) + 1e-24), np.sqrt((protos * protos).sum(axis=1) + 1e-24)
    )
    ordered = np.sort(sims, axis=1)
    ties = int(np.sum(ordered[:, -1] - ordered[:, -2] < TIE_GAP))
    correct = int(np.sum(np.argmax(sims, axis=1) == labels))
    return correct, ties


def check_node_episodes(a_hat, features, centers, w1, w2, tasks, alphas, accuracies):
    """Every episode's accuracy matches the dense recomputation."""
    failures = []
    if not (len(tasks) == len(alphas) == len(accuracies)):
        return [f"{len(tasks)} tasks, {len(alphas)} alphas, {len(accuracies)} accuracies"]
    for rep, (task, alpha, acc) in enumerate(zip(tasks, alphas, accuracies)):
        correct, ties = episode_reference(a_hat, features, centers, alpha, w1, w2, task)
        reported = acc * len(task.query)
        if abs(reported - correct) > ties + 1e-6:
            failures.append(
                f"episode {rep}: accuracy {acc:.6f} is {reported:.1f} correct queries, "
                f"reference gives {correct} (ties {ties})"
            )
    return failures


def check_pretrain(history, trained: dict, initial: dict):
    """Loss and gate values are in range and training moved the weights."""
    failures = []
    if not history:
        failures.append("empty pre-training history")
    for row in history:
        epoch = row.get("epoch")
        for key in ("loss_dis", "loss_fine", "loss_total", "gate_fraction"):
            if not math.isfinite(row[key]):
                failures.append(f"epoch {epoch}: {key} is {row[key]}")
        if row["loss_dis"] < 0.0:
            failures.append(f"epoch {epoch}: loss_dis {row['loss_dis']} < 0")
        if row["loss_fine"] < -1e-9:
            failures.append(f"epoch {epoch}: loss_fine {row['loss_fine']} < 0 (KL)")
        if not 0.0 <= row["gate_fraction"] <= 1.0:
            failures.append(f"epoch {epoch}: gate_fraction {row['gate_fraction']} outside [0, 1]")
    if set(trained) != set(initial):
        failures.append(f"parameter names {sorted(trained)} != {sorted(initial)}")
    elif all(np.array_equal(trained[k], initial[k]) for k in initial):
        failures.append("trained parameters equal their initial values")
    return failures


def snapshot(params: dict) -> dict:
    return {name: np.array(value, copy=True) for name, value in params.items()}


def check_frozen(before: dict, after: dict):
    """Parameters are bit-identical across the few-shot episodes."""
    if set(before) != set(after):
        return [f"parameter names changed: {sorted(before)} -> {sorted(after)}"]
    return [
        f"parameter {name} changed during the episodes"
        for name in before
        if before[name].tobytes() != np.asarray(after[name]).tobytes()
    ]


def check_accuracy(accuracies, num_classes: int):
    """Each accuracy lies in [0, 1]; the mean beats chance (1/classes)."""
    failures = [
        f"episode {rep}: accuracy {acc} outside [0, 1]"
        for rep, acc in enumerate(accuracies)
        if not 0.0 <= acc <= 1.0
    ]
    if not accuracies:
        failures.append("no episodes")
    elif float(np.mean(accuracies)) <= 1.0 / num_classes:
        failures.append(
            f"mean accuracy {np.mean(accuracies):.4f} is not above chance {1.0 / num_classes:.4f}"
        )
    return failures


def lipschitz_reference(w1, w2, adjacencies) -> float:
    """sigma(W1) * sigma(W2) * max ||A_hat||^2 by full SVD."""
    s1 = np.linalg.svd(w1, compute_uv=False)[0]
    s2 = np.linalg.svd(w2, compute_uv=False)[0]
    a_max = max(np.linalg.svd(a, compute_uv=False)[0] for a in adjacencies)
    return float(s1 * s2 * a_max**2)


def check_diagnostics(report: dict, reference_lipschitz: float):
    failures = []
    got = report["lipschitz_bound"]
    if not abs(got - reference_lipschitz) <= LIPSCHITZ_RTOL * abs(reference_lipschitz):
        failures.append(
            f"lipschitz_bound {got!r} differs from the SVD reference {reference_lipschitz!r}"
        )
    if report["stability_violations"] != 0:
        failures.append(f"{report['stability_violations']} mixing-stability violations")
    return failures


def check_parity(cli_accuracies, library_accuracies):
    """The CLI's per-episode accuracies equal the library's, exactly."""
    if list(cli_accuracies) != list(library_accuracies):
        return [f"CLI accuracies {list(cli_accuracies)} != library {list(library_accuracies)}"]
    return []


def check_exit_codes(codes: dict):
    return [f"`domainmix {cmd}` exited with {rc}" for cmd, rc in codes.items() if rc != 0]

"""Synthetic surrogate for the JIGSAWS surgical-gesture dataset.

The paper's classification experiment (Section 6.1) uses the JHU-ISI
Gesture and Skill Assessment Working Set: kinematic recordings of eight
surgeons performing three tasks (Knot Tying, Needle Passing, Suturing) on
the da Vinci robot, restricted to the 18 kinematic variables representing
the *rotations* of the master and patient-side manipulators, with 15
gesture labels.  Models are trained on surgeon "D" and tested on the
others.

JIGSAWS is restricted-access and this environment has no network, so we
substitute a generative surrogate that preserves the structure the
experiment probes:

* each **gesture** is a prototype over latent **angular** variables —
  the manipulator orientations; samples add von Mises measurement noise
  (task-specific concentration κ) plus a per-surgeon systematic offset,
  which is what makes leave-surgeon-out evaluation a domain-shift
  problem;
* the three **tasks** differ in noise level, surgeon variability, and in
  how strongly gesture prototypes concentrate near the 0/2π wrap point
  (``wrap_bias``) — wrap-straddling classes are the failure mode of
  interval (level) encodings;
* two **feature modes**: ``"angles"`` (default) exposes the latent angles
  directly — 18 angular channels, the cleanest probe of circular
  encodings; ``"rotation_matrix"`` exposes the 18 entries of the two
  3 × 3 rotation matrices built from Euler angles, mimicking the raw
  JIGSAWS variables (whose value→orientation inverse is multimodal).

Task parameters were calibrated so the experiment reproduces the paper's
qualitative Table 1 shape on the default mode (``docs/REPRODUCING.md``,
Table 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..exceptions import InvalidParameterError
from .base import ClassificationSplit

__all__ = ["TaskSpec", "JIGSAWS_TASKS", "SURGEONS", "make_jigsaws_like"]

TWO_PI = 2.0 * math.pi

#: Surgeon identifiers as in JIGSAWS (eight surgeons, "B" … "I").
SURGEONS = ("B", "C", "D", "E", "F", "G", "H", "I")

_FEATURE_MODES = ("angles", "rotation_matrix")


@dataclass(frozen=True)
class TaskSpec:
    """Generator parameters of one surgical task.

    Attributes
    ----------
    kappa:
        Von Mises concentration of the measurement noise (higher = cleaner
        kinematics, easier task).
    wrap_bias:
        Concentration of gesture prototypes around the 0/2π wrap point;
        0 places prototypes uniformly, larger values crowd them across the
        wrap — harder for interval (level) encodings.
    surgeon_sigma:
        Standard deviation (radians) of the per-surgeon systematic offset
        (the leave-surgeon-out domain shift).
    samples_per_gesture:
        Samples per (gesture, surgeon) pair.
    """

    kappa: float
    wrap_bias: float
    surgeon_sigma: float
    samples_per_gesture: int = 20


#: The three JIGSAWS tasks, ordered as in Table 1.  Difficulty (noise,
#: surgeon shift) and wrap pressure increase from Knot Tying to Suturing,
#: mirroring the relative accuracies the paper reports.  Values calibrated
#: against the paper's qualitative shape; see ``docs/REPRODUCING.md``.
JIGSAWS_TASKS: dict[str, TaskSpec] = {
    "knot_tying": TaskSpec(kappa=4.5, wrap_bias=1.5, surgeon_sigma=0.25),
    "needle_passing": TaskSpec(kappa=4.0, wrap_bias=2.0, surgeon_sigma=0.28),
    "suturing": TaskSpec(kappa=3.5, wrap_bias=3.5, surgeon_sigma=0.30),
}


def _latent_channels(features: str, num_channels: int) -> int:
    """Validate a feature mode and return its latent angle count."""
    if features not in _FEATURE_MODES:
        raise InvalidParameterError(
            f"features must be one of {_FEATURE_MODES}, got {features!r}"
        )
    if features == "rotation_matrix":
        if num_channels % 9 != 0:
            raise InvalidParameterError(
                "rotation_matrix mode needs num_channels divisible by 9, "
                f"got {num_channels}"
            )
        return num_channels // 3  # 3 Euler angles per 9 entries
    if num_channels < 1:
        raise InvalidParameterError(f"need at least 1 channel, got {num_channels}")
    return num_channels


def _gesture_prototypes(
    rng: np.random.Generator, spec: TaskSpec, num_gestures: int, num_latent: int
) -> np.ndarray:
    """Angular gesture prototypes, optionally crowded near the wrap."""
    if spec.wrap_bias == 0.0:
        return rng.uniform(0.0, TWO_PI, size=(num_gestures, num_latent))
    return np.mod(
        rng.vonmises(0.0, spec.wrap_bias, size=(num_gestures, num_latent)), TWO_PI
    )


def _group_samples(
    prototype: np.ndarray,
    offset: np.ndarray,
    kappa: float,
    count: int,
    rng: np.random.Generator,
    features: str,
) -> np.ndarray:
    """Samples of one (surgeon, gesture) group: prototype + offset + noise.

    The generation unit shared by :func:`make_jigsaws_like` (which draws
    every group from one sequential stream) and
    :class:`repro.streaming.JigsawsStream` (which gives each group its
    own RNG substream so groups can be generated out of core).
    """
    num_latent = prototype.shape[0]
    noise = rng.vonmises(0.0, kappa, size=(count, num_latent))
    angles = np.mod(prototype + offset + noise, TWO_PI)
    if features == "rotation_matrix":
        matrices = [
            _euler_to_matrix(
                angles[:, 3 * m], angles[:, 3 * m + 1], angles[:, 3 * m + 2]
            )
            for m in range(num_latent // 3)
        ]
        return np.concatenate(matrices, axis=1)
    return angles


def _euler_to_matrix(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rotation-matrix entries ``R = Rz(a) · Ry(b) · Rx(c)``, flattened.

    Vectorised over leading dimensions; returns the 9 entries along the
    trailing axis in row-major order.
    """
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    return np.stack(
        [
            ca * cb, ca * sb * sc - sa * cc, ca * sb * cc + sa * sc,
            sa * cb, sa * sb * sc + ca * cc, sa * sb * cc - ca * sc,
            -sb, cb * sc, cb * cc,
        ],
        axis=-1,
    )


def make_jigsaws_like(
    task: str = "knot_tying",
    num_gestures: int = 15,
    num_channels: int = 18,
    train_surgeon: str = "D",
    surgeon_sigma: float | None = None,
    features: str = "angles",
    seed: SeedLike = None,
) -> ClassificationSplit:
    """Generate a surrogate surgical-gesture classification dataset.

    Parameters
    ----------
    task:
        One of ``"knot_tying"``, ``"needle_passing"``, ``"suturing"``
        (or any key previously added to :data:`JIGSAWS_TASKS`).
    num_gestures:
        Number of gesture classes (15 in JIGSAWS).
    num_channels:
        Number of kinematic channels (18 in the paper's subset).  In
        ``"rotation_matrix"`` mode this must be a multiple of 9 (each
        rotation matrix contributes 9 entries from 3 latent angles).
    train_surgeon:
        The surgeon whose recordings form the training set (paper: "D").
    surgeon_sigma:
        Override for the task's per-surgeon offset std (radians);
        ``None`` uses the task specification.
    features:
        ``"angles"`` — channels are the latent angles in ``[0, 2π)``;
        ``"rotation_matrix"`` — channels are rotation-matrix entries in
        ``[−1, 1]`` derived from the latent Euler angles.
    seed:
        Randomness source; one seed fixes prototypes, offsets and samples.

    Returns
    -------
    ClassificationSplit
        Features of shape ``(n, num_channels)``; labels are gesture ids
        ``0 … num_gestures − 1``.  ``metadata["feature_kind"]`` records
        the mode; for ``"angles"`` the period is ``2π``, for
        ``"rotation_matrix"`` the value range is ``[−1, 1]``.
    """
    if task not in JIGSAWS_TASKS:
        raise InvalidParameterError(
            f"unknown task {task!r}; choose from {sorted(JIGSAWS_TASKS)}"
        )
    if train_surgeon not in SURGEONS:
        raise InvalidParameterError(
            f"unknown surgeon {train_surgeon!r}; choose from {SURGEONS}"
        )
    if num_gestures < 2:
        raise InvalidParameterError(f"need at least 2 gestures, got {num_gestures}")
    num_latent = _latent_channels(features, num_channels)

    spec = JIGSAWS_TASKS[task]
    sigma = spec.surgeon_sigma if surgeon_sigma is None else float(surgeon_sigma)
    if sigma < 0:
        raise InvalidParameterError(f"surgeon_sigma must be non-negative, got {sigma}")
    proto_rng, offset_rng, noise_rng = ensure_rng(seed).spawn(3)

    # Gesture prototypes: angular positions, optionally crowded near the wrap.
    prototypes = _gesture_prototypes(proto_rng, spec, num_gestures, num_latent)

    # Per-surgeon systematic offsets (style differences between surgeons).
    offsets = offset_rng.normal(0.0, sigma, size=(len(SURGEONS), num_latent))

    features_list: list[np.ndarray] = []
    labels_list: list[np.ndarray] = []
    surgeon_ids: list[np.ndarray] = []
    n = spec.samples_per_gesture
    for s_idx in range(len(SURGEONS)):
        for gesture in range(num_gestures):
            sample = _group_samples(
                prototypes[gesture], offsets[s_idx], spec.kappa, n, noise_rng, features
            )
            features_list.append(sample)
            labels_list.append(np.full(n, gesture, dtype=np.int64))
            surgeon_ids.append(np.full(n, s_idx, dtype=np.int64))

    x = np.concatenate(features_list, axis=0)
    y = np.concatenate(labels_list, axis=0)
    s = np.concatenate(surgeon_ids, axis=0)

    train_mask = s == SURGEONS.index(train_surgeon)
    metadata = {
        "name": f"jigsaws-like/{task}",
        "task": task,
        "kappa": spec.kappa,
        "wrap_bias": spec.wrap_bias,
        "samples_per_gesture": spec.samples_per_gesture,
        "num_gestures": num_gestures,
        "num_channels": num_channels,
        "train_surgeon": train_surgeon,
        "surgeon_sigma": sigma,
        "feature_kind": features,
        "feature_period": TWO_PI if features == "angles" else None,
        "feature_range": (-1.0, 1.0) if features == "rotation_matrix" else (0.0, TWO_PI),
    }
    return ClassificationSplit(
        train_features=x[train_mask],
        train_labels=y[train_mask],
        test_features=x[~train_mask],
        test_labels=y[~train_mask],
        metadata=metadata,
    )

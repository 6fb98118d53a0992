"""The unified experiment specification: one entry point for campaigns and sweeps.

An :class:`ExperimentSpec` declares everything the paper's Monte-Carlo
artifacts need -- which registered trial kernel to run, how many trials, the
root seed, the shared parameters and (optionally) a parameter grid.  With an
empty ``grid`` the experiment is a single campaign; with a non-empty ``grid``
it is a cross-campaign sweep whose expansion is the Cartesian product of the
axes.  ``from_dict``/``from_json`` auto-detect which of the two on-disk
shapes they are given, so one loader handles every spec file in the repo::

    {"campaign": "abft_error_coverage", "n_trials": 50, "seed": 7,
     "params": {"bit_error_rate": 1e-7, "scheme": "tensor"}}

    {"campaign": "transformer_inference", "n_trials": 100, "seed": 7,
     "base_params": {"site": "gemm_qk"},
     "grid": {"scheme": ["none", "efta_unified"], "bit_error_rate": [1e-9, 1e-8]}}

Expansion turns an experiment into one gridless spec per grid point, the
unit every executor, checkpoint and results store works on.  A point spec
carries the experiment's ``faultload`` inside its ``params`` and no
``adaptive``/``store`` field, so its ``to_dict()`` is exactly the
``{"spec": ...}`` header of that point's checkpoint file.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any

from repro.exec.adaptive import AdaptiveSpec
from repro.fault.runner import _canonical_json


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment (campaign or sweep).

    Attributes
    ----------
    campaign:
        Name of the registered trial kernel every grid point runs.
    n_trials:
        Trials per grid point.
    seed:
        Root seed shared by every grid point.  Per-trial generators derive
        from ``SeedSequence(seed).spawn``, so results are bit-identical for
        any executor backend, worker count or scheduling -- and sharing the
        root across grid points gives common random numbers, sharpening
        cross-cell comparisons.
    params:
        Parameters shared by every grid point; a grid axis overrides a base
        key of the same name.
    grid:
        Mapping of parameter name to the list of values to sweep.  Empty
        means a single campaign.  Expansion is the Cartesian product, axes
        iterated in sorted key order and values in the order given.
    name:
        Optional label; expanded campaigns are named
        ``<label>/<axis>=<value>,...`` (sweeps) or ``name`` verbatim
        (single campaigns).
    faultload:
        Optional path to a pre-materialized faultload artifact (see
        :mod:`repro.fault.dictionary`).  When set, every grid point's
        campaign replays the artifact's per-trial ``FaultSpec`` lists instead
        of drawing faults -- the same faults under every scheme, backend and
        worker count.  Serialised only when non-empty, so existing spec files
        and checkpoint resume identities are untouched.
    adaptive:
        Optional :class:`~repro.exec.adaptive.AdaptiveSpec` stopping policy.
        When set, the engine runs each grid point in rounds and stops it as
        soon as its metric's confidence interval is tight enough (or its
        bound settles a threshold), topping the rest up by another batch --
        ``n_trials`` becomes the *initial* per-point budget rather than a
        fixed count.  Serialised only when set (like ``faultload``), so
        existing spec files round-trip unchanged.
    store:
        Optional results-store backend name (``"jsonl"``, ``"sqlite"``, or
        any ``@register_store`` plug-in; see :mod:`repro.store`).  Empty
        means the default JSONL layout; ``repro run --store`` overrides it.
        Serialised only when non-empty and excluded from resume identities,
        so existing spec files and checkpoints are untouched.
    """

    campaign: str
    n_trials: int
    seed: int = 0
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    name: str = ""
    faultload: str = ""
    adaptive: AdaptiveSpec | None = None
    store: str = ""

    def __post_init__(self) -> None:
        if not self.campaign:
            raise ValueError("campaign name must be non-empty")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative (SeedSequence entropy)")
        for axis, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid axis {axis!r} must be a non-empty list of values")
        if isinstance(self.adaptive, dict):
            # Accept the on-disk block form directly (kwargs mirror from_dict).
            object.__setattr__(self, "adaptive", AdaptiveSpec.from_dict(self.adaptive))
        if self.adaptive is not None and not isinstance(self.adaptive, AdaptiveSpec):
            raise ValueError(
                "adaptive must be an AdaptiveSpec (or its dict form), got "
                f"{type(self.adaptive).__name__}"
            )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def is_sweep(self) -> bool:
        """Whether the experiment expands into more than one campaign shape."""
        return bool(self.grid)

    @property
    def kind(self) -> str:
        """``"sweep"`` (non-empty grid) or ``"campaign"``."""
        return "sweep" if self.is_sweep else "campaign"

    @property
    def label(self) -> str:
        """The display name (explicit ``name`` or the campaign name)."""
        return self.name or self.campaign

    @property
    def axes(self) -> list[str]:
        """Grid axis names in expansion (sorted) order."""
        return sorted(self.grid)

    @property
    def n_points(self) -> int:
        """Number of grid points the experiment expands into."""
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def points(self) -> list[dict]:
        """The grid points, in deterministic expansion order."""
        axes = self.axes
        if not axes:
            return [{}]
        return [
            dict(zip(axes, combo))
            for combo in itertools.product(*(list(self.grid[a]) for a in axes))
        ]

    def expanded(self) -> list[tuple[dict, "ExperimentSpec"]]:
        """``(grid point, point spec)`` pairs, in expansion order.

        Each point spec is a gridless experiment with the grid point and the
        experiment's ``faultload`` folded into its ``params`` (an explicit
        ``params`` key wins over ``faultload``, a grid axis over both).  A
        single campaign keeps its ``name``; sweep points are named
        ``<label>/<axis>=<value>,...``.
        """
        extra = {"faultload": self.faultload} if self.faultload else {}
        pairs = []
        for point in self.points():
            tag = ",".join(f"{axis}={point[axis]}" for axis in self.axes)
            spec = ExperimentSpec(
                campaign=self.campaign,
                n_trials=self.n_trials,
                seed=self.seed,
                params=json.loads(json.dumps({**extra, **self.params, **point})),
                name=f"{self.label}/{tag}" if self.is_sweep else self.name,
            )
            pairs.append((point, spec))
        return pairs

    def expand(self) -> list["ExperimentSpec"]:
        """One point spec per grid point, in expansion order."""
        return [spec for _, spec in self.expanded()]

    # ------------------------------------------------------------------ #
    # Serialisation (auto-detecting both on-disk shapes)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-dict form, in the campaign or sweep on-disk shape.

        A single campaign serialises its shared parameters as ``params``, a
        sweep as ``base_params`` next to its ``grid`` -- the two shapes spec
        files and checkpoint headers have always had.
        """
        if not self.is_sweep:
            data = {
                "campaign": self.campaign,
                "n_trials": self.n_trials,
                "seed": self.seed,
                "params": json.loads(json.dumps(self.params)),
                "name": self.name,
            }
        else:
            data = {
                "campaign": self.campaign,
                "n_trials": self.n_trials,
                "seed": self.seed,
                "grid": json.loads(json.dumps(self.grid)),
                "base_params": json.loads(json.dumps(self.params)),
                "name": self.name,
            }
        if self.faultload:
            # Emitted only when set: pre-existing spec files and resume keys
            # must serialise exactly as before this field existed.
            data["faultload"] = self.faultload
        if self.adaptive is not None:
            data["adaptive"] = self.adaptive.to_dict()
        if self.store:
            data["store"] = self.store
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Auto-detecting inverse of :meth:`to_dict`.

        A ``grid`` key marks a sweep-shaped dict; shared parameters may be
        spelled ``params`` (campaign shape) or ``base_params`` (sweep shape),
        but not both.
        """
        if not isinstance(data, dict):
            raise ValueError(f"experiment spec must be a JSON object, got {type(data).__name__}")
        known = {
            "campaign", "n_trials", "seed", "params", "base_params",
            "grid", "name", "faultload", "adaptive", "store",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        if "params" in data and "base_params" in data:
            raise ValueError("give either 'params' or 'base_params', not both")
        params = data.get("params", data.get("base_params", {}))
        return cls(
            campaign=str(data["campaign"]),
            n_trials=int(data["n_trials"]),
            seed=int(data.get("seed", 0)),
            # Deep-copied for symmetry with to_dict: the frozen spec must not
            # alias the caller's nested mutables.
            params=json.loads(json.dumps(params)),
            grid=json.loads(json.dumps(data.get("grid", {}))),
            name=str(data.get("name", "")),
            faultload=str(data.get("faultload", "")),
            adaptive=(
                AdaptiveSpec.from_dict(data["adaptive"])
                if data.get("adaptive") is not None
                else None
            ),
            store=str(data.get("store", "")),
        )

    def to_json(self) -> str:
        """Canonical (sorted-key) JSON form."""
        return _canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Inverse of :meth:`to_json` (auto-detecting, like :meth:`from_dict`)."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_any(cls, spec: Any) -> "ExperimentSpec":
        """Coerce any spec form (experiment, dict, JSON text)."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        if isinstance(spec, str):
            return cls.from_json(spec)
        raise TypeError(f"cannot build an ExperimentSpec from {type(spec).__name__}")


def load_spec(text: str) -> ExperimentSpec:
    """Parse a JSON spec file's text into an :class:`ExperimentSpec`."""
    return ExperimentSpec.from_json(text)

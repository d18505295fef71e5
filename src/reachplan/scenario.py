"""Mission parameters and the one parser that ``reachplan validate`` and
``reachplan run`` share."""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .dynamics import TrueSystem, mecanum_system, unicycle_system
from .geometry import Box, GeometryError
from .partition import PartitionTree

# numeric fields that must be positive, not merely non-negative, and
# those that must not exceed one
_POSITIVE = {"C_u", "dt", "ident_period", "shrink", "terminal_slack_weight",
             "record_stride"}
_AT_MOST_ONE = {"p_prior", "shrink"}
# RK4 steps of dt allowed in the longer of the terminal budget and one
# simulated second, a bound on the length of any one rollout's loop
MAX_ROLLOUT_STEPS = 10**7


def _invalid(name: str, why: str) -> ValueError:
    return ValueError(f"scenario.{name}: {why}")


@dataclass
class Scenario:
    """Mission parameters. The constructor is the one parser of scenario
    input: it converts every field to its declared type and raises
    ``ValueError("scenario.<field>: ...")`` for the first field a mission
    could not run with. ``np.ndarray`` fields hold one entry per state
    coordinate, or per input for the ``pu_`` box."""

    system: str                      # "mecanum" | "unicycle"
    ws_lo: np.ndarray
    ws_hi: np.ndarray
    pu_lo: np.ndarray
    pu_hi: np.ndarray
    L_df: float
    L_g: float
    h_min: np.ndarray
    C_u: float
    beta_u: float
    x_init: np.ndarray
    x_target: np.ndarray
    p_prior: float = 0.5
    theta_thre: float = 0.0          # radians; side-facet relaxation threshold
    shrink: float = 0.5              # truncated-pyramid ratio
    dt: float = 1e-3
    ident_period: float = 1e-3
    max_iters: int = 300
    retry_budget: int = 10
    stall_limit: int = 8
    terminal_budget: float = 40.0    # simulated seconds for the final cell
    terminal_alpha: float = 1.0
    terminal_kappa: float = 1.0
    terminal_slack_weight: float = 1.0
    r_stop: float = 0.1
    record_stride: int = 10
    name: str = ""

    def __post_init__(self):
        plant = self.make_system()
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "np.ndarray":
                size = plant.m if f.name.startswith("pu_") else plant.n
                v = _vector(f.name, v, size, self.system)
            elif f.type in ("float", "int"):
                v = _number(f.name, v, float if f.type == "float" else int)
            elif not isinstance(v, str):
                raise _invalid(f.name, "not a string")
            setattr(self, f.name, v)
        horizon = max(self.terminal_budget, 1.0)
        if horizon / self.dt > MAX_ROLLOUT_STEPS:
            raise _invalid("dt", f"{horizon:g} s (the terminal budget, at least 1 s) "
                                 f"would take more than {MAX_ROLLOUT_STEPS:.0e} RK4 steps")
        try:
            ws = self.workspace()
        except GeometryError:
            raise _invalid("ws_hi", "must exceed ws_lo componentwise") from None
        try:
            self.pu()
        except GeometryError:
            raise _invalid("pu_hi", "must exceed pu_lo componentwise") from None
        for name in ("x_init", "x_target"):
            if not ws.contains(getattr(self, name)):
                raise _invalid(name, "outside the workspace box")
        try:
            PartitionTree(self.ws_lo, self.ws_hi, self.h_min)
        except GeometryError as e:
            raise _invalid("h_min", str(e)) from None

    @property
    def underactuated(self) -> bool:
        return self.system == "unicycle"

    def workspace(self) -> Box:
        return Box(lo=self.ws_lo, hi=self.ws_hi)

    def pu(self) -> Box:
        return Box(lo=self.pu_lo, hi=self.pu_hi)

    def make_system(self) -> TrueSystem:
        if self.system == "mecanum":
            return mecanum_system()
        if self.system == "unicycle":
            return unicycle_system()
        raise _invalid("system", "must be 'mecanum' or 'unicycle'")

    def to_dict(self) -> dict:
        d = {}
        for k, v in self.__dict__.items():
            d[k] = v.tolist() if isinstance(v, np.ndarray) else v
        return d

    @staticmethod
    def from_dict(d) -> "Scenario":
        """Parse a JSON object; keys that name no field are ignored."""
        if not isinstance(d, dict):
            raise ValueError("scenario: not a JSON object")
        for f in fields(Scenario):
            if f.default is MISSING and f.name not in d:
                raise _invalid(f.name, "missing required field")
        return Scenario(**{k: v for k, v in d.items() if k in Scenario.__dataclass_fields__})


def _vector(name: str, v, size: int, system: str) -> np.ndarray:
    try:
        v = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise _invalid(name, "not a numeric vector") from None
    if v.shape != (size,):
        raise _invalid(name, f"needs {size} entries for '{system}'")
    if not np.all(np.isfinite(v)):
        raise _invalid(name, "must be finite")
    return v


def _number(name: str, v, kind: type):
    """A finite, non-negative float or int, within the field's range."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise _invalid(name, "not a number")
    try:
        v = float(v)
    except OverflowError:           # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise _invalid(name, "must be finite")
    if kind is int and v != int(v):
        raise _invalid(name, "not an integer")
    if v <= 0 and name in _POSITIVE:
        raise _invalid(name, "must be positive")
    if v < 0:
        raise _invalid(name, "must not be negative")
    if v > 1 and name in _AT_MOST_ONE:
        raise _invalid(name, "must not exceed 1")
    return kind(v)


def builtin_scenario(name: str) -> Scenario:
    if name == "mecanum":
        return Scenario(
            system="mecanum", name="mecanum",
            ws_lo=[-8.0, -8.0], ws_hi=[8.0, 8.0],
            pu_lo=[-5.0, -5.0], pu_hi=[5.0, 5.0],
            L_df=0.03, L_g=0.03, h_min=[1.0, 1.0],
            C_u=100.0, beta_u=0.8,
            x_init=[6.5, 6.5], x_target=[-0.5, -0.5],
            terminal_kappa=20.0, terminal_slack_weight=1e6,
        )
    if name == "unicycle":
        return Scenario(
            system="unicycle", name="unicycle",
            ws_lo=[-10.0, -10.0, -np.pi], ws_hi=[10.0, 10.0, np.pi],
            pu_lo=[-10.0, -10.0], pu_hi=[10.0, 10.0],
            L_df=0.05, L_g=1.0, h_min=[1.25, 1.25, np.pi / 4],
            C_u=10.0, beta_u=1.0, theta_thre=np.deg2rad(10.0),
            x_init=[-4.375, 0.625, -np.pi / 8],
            x_target=[0.625, 0.625, -np.pi / 8],
            r_stop=0.5, terminal_budget=20.0, terminal_slack_weight=1e6,
        )
    raise ValueError(f"no built-in scenario '{name}'")

"""Device and server processing-time profiles.

The paper's active measurements (Samsung Pad on Android 4.1.2, iPad Air2 on
iOS 8.4.1) showed that the server-side processing time ``Tsrv`` is device
independent (~100 ms median), while the client-side processing time ``Tclt``
differs sharply by platform: Android clients take on average ~90 ms longer
than iOS to prepare the next upload chunk, and their retrieval-side 90th
percentile reaches ~1 s versus ~0.1 s on iOS (Fig 16a/16b).  Those gaps are
the entire causal channel through which device type affects transfer
performance, so we encode them as lognormal ``Tclt`` distributions per
device and direction, calibrated so the simulated idle/RTO ratios land near
the paper's Fig 16c (about 60% of Android storage gaps exceed one RTO versus
about 18% on iOS).

Receive windows follow Section 4.1: the *servers* advertise at most 64 KB
(window scaling disabled), while the clients advertise large scaled windows
(4 MB observed on the Samsung Pad, 2 MB on the iPad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..logs.schema import DeviceType
from .connection import MAX_UNSCALED_RWND


@dataclass(frozen=True)
class Lognormal:
    """A lognormal distribution parameterized by its median and log-sigma."""

    median: float
    sigma: float
    #: ``log(median)``, the location parameter; derived, computed once.
    mu: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError("median must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        object.__setattr__(self, "mu", math.log(self.median))

    @property
    def mean(self) -> float:
        return self.median * math.exp(self.sigma**2 / 2.0)

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray | float:
        """One draw (``n=None``, a float) or an array of ``n`` draws.

        A scalar draw is NumPy's own definition of
        ``rng.lognormal(mu, sigma)``, ``exp(mu + sigma * standard_normal())``:
        the same value and the same stream state, without the scalar
        call's argument handling (see :mod:`repro.workload.sampling`).
        """
        if n is None:
            try:
                return math.exp(self.mu + self.sigma * rng.standard_normal())
            except OverflowError:
                return math.inf  # NumPy's value past the float range
        return rng.lognormal(self.mu, self.sigma, size=n)

    def quantile(self, q: float) -> float:
        """Inverse CDF via the normal quantile (Acklam-free: bisection)."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        # Invert the standard normal CDF by bisection on erf.
        lo, hi = -10.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < q:
                lo = mid
            else:
                hi = mid
        z = 0.5 * (lo + hi)
        return math.exp(self.mu + self.sigma * z)


@dataclass(frozen=True)
class DeviceProfile:
    """Client-side behaviour of one device platform.

    Attributes
    ----------
    device_type:
        The platform this profile models.
    upload_tclt:
        Distribution of the time to prepare the next chunk when storing.
    download_tclt:
        Distribution of the time to process a received chunk when
        retrieving.
    advertised_rwnd:
        Receive window the client advertises for downloads (bytes).
    window_scaling:
        Whether the client enables RFC 7323 window scaling (all observed
        mobile clients do).
    """

    device_type: DeviceType
    upload_tclt: Lognormal
    download_tclt: Lognormal
    advertised_rwnd: int
    window_scaling: bool = True

    def tclt(self, direction_is_store: bool) -> Lognormal:
        return self.upload_tclt if direction_is_store else self.download_tclt


#: Calibrated to Fig 16a: upload Tclt roughly 190 ms above the iOS median
#: with a heavy tail, yielding ~60% of storage idle gaps above one RTO, and
#: a retrieval Tclt whose 90th percentile reaches ~1 s (Fig 16b).
ANDROID = DeviceProfile(
    device_type=DeviceType.ANDROID,
    upload_tclt=Lognormal(median=0.30, sigma=1.3),
    download_tclt=Lognormal(median=0.06, sigma=2.2),
    advertised_rwnd=4 * 1024 * 1024,
)

#: Calibrated to Fig 16a/b: light-tailed sub-100 ms processing, yielding
#: ~18% of storage idle gaps above one RTO.
IOS = DeviceProfile(
    device_type=DeviceType.IOS,
    upload_tclt=Lognormal(median=0.09, sigma=0.85),
    download_tclt=Lognormal(median=0.04, sigma=0.8),
    advertised_rwnd=2 * 1024 * 1024,
)

#: PC clients are not part of the Section 4 analysis; modeled as fast.
PC = DeviceProfile(
    device_type=DeviceType.PC,
    upload_tclt=Lognormal(median=0.02, sigma=0.5),
    download_tclt=Lognormal(median=0.01, sigma=0.5),
    advertised_rwnd=4 * 1024 * 1024,
)


@dataclass(frozen=True)
class ServerProfile:
    """Front-end/storage server behaviour.

    ``Tsrv`` is the upstream storage-server processing time, observed to be
    ~100 ms median regardless of device type or direction (Fig 16).  The
    advertised receive window defaults to the unscaled 64 KB maximum the
    paper measured; the Section 4.3 ablation raises it with scaling on.
    """

    tsrv: Lognormal = Lognormal(median=0.10, sigma=0.50)
    advertised_rwnd: int = MAX_UNSCALED_RWND
    window_scaling: bool = False


DEFAULT_SERVER = ServerProfile()


#: The built-in profile of each device type, keyed by the member's ``id``:
#: ``Enum.__hash__`` runs in Python, an identity key does not, and the
#: members live as long as the module, so no other object shares an id.
_PROFILES = {id(profile.device_type): profile for profile in (ANDROID, IOS, PC)}


def profile_for(device_type: DeviceType) -> DeviceProfile:
    """Look up the built-in profile for a device type.

    Raises :class:`KeyError` for anything but a :class:`DeviceType` member.
    """
    try:
        return _PROFILES[id(device_type)]
    except KeyError:
        raise KeyError(device_type) from None

"""Activity-of-daily-living catalogue (paper Table III).

Defines the 11 macro activities, 5 postural and 5 oral-gestural micro
activities, and — for the generative simulation — an :class:`ActivityProfile`
per macro activity: where it happens (sub-region distribution), how the body
moves while doing it (postural / gestural distributions), which instrumented
objects it touches, how long it lasts, and whether residents tend to do it
together.  These profiles are the generative counterpart of the structures
the CACE miners are supposed to *discover*; none of the profile tables are
visible to the recognition models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: The 11 macro (complex) activities of Table III.
MACRO_ACTIVITIES: Tuple[str, ...] = (
    "exercising",
    "prepare_clothes",
    "dining",
    "watching_tv",
    "prepare_food",
    "studying",
    "sleeping",
    "bathrooming",
    "cooking",
    "past_times",
    "random",
)

#: Postural micro activities (pocket smartphone).
POSTURAL_ACTIVITIES: Tuple[str, ...] = ("walking", "standing", "sitting", "cycling", "lying")

#: Oral-gestural micro activities (neck-mounted tag).
GESTURAL_ACTIVITIES: Tuple[str, ...] = ("silent", "talking", "eating", "yawning", "laughing")

#: Macro activities residents commonly perform together (paper: "shared
#: activities such as sleeping, dining, past-times").
SHAREABLE_ACTIVITIES: Tuple[str, ...] = ("dining", "watching_tv", "sleeping", "past_times")

#: Macro activities requiring sole occupancy of their location.
EXCLUSIVE_ACTIVITIES: Tuple[str, ...] = ("bathrooming",)


@dataclass(frozen=True)
class ActivityProfile:
    """Generative profile of one macro activity.

    All distribution dicts map label -> probability and must sum to 1.
    ``duration_range_s`` bounds a log-uniform duration draw.
    ``objects`` maps instrumented object name -> interaction intensity in
    [0, 1] while the activity runs (0.45+ fires a 55%-sensitivity sensor).
    ``mobility`` is the fraction of time the resident is ambulating inside
    the activity's area (drives PIR firings).
    """

    name: str
    sublocations: Dict[str, float]
    postural: Dict[str, float]
    gestural: Dict[str, float]
    duration_range_s: Tuple[float, float]
    objects: Dict[str, float] = field(default_factory=dict)
    mobility: float = 0.2
    shareable: bool = False
    exclusive: bool = False


_PROFILES: Dict[str, ActivityProfile] = {
    "exercising": ActivityProfile(
        name="exercising",
        sublocations={"SR1": 0.92, "SR12": 0.08},
        postural={"cycling": 0.78, "standing": 0.17, "walking": 0.05},
        gestural={"silent": 0.82, "yawning": 0.08, "talking": 0.10},
        duration_range_s=(480, 1200),
        objects={"exercise_bike": 0.9},
        mobility=0.35,
    ),
    "prepare_clothes": ActivityProfile(
        name="prepare_clothes",
        sublocations={"SR6": 0.55, "SR8": 0.33, "SR14": 0.12},
        postural={"standing": 0.6, "walking": 0.34, "sitting": 0.06},
        gestural={"silent": 0.82, "talking": 0.12, "yawning": 0.06},
        duration_range_s=(180, 480),
        objects={"wardrobe": 0.7},
        mobility=0.45,
    ),
    "dining": ActivityProfile(
        name="dining",
        sublocations={"SR4": 0.96, "SR12": 0.04},
        postural={"sitting": 0.9, "standing": 0.07, "walking": 0.03},
        gestural={"eating": 0.55, "talking": 0.3, "silent": 0.13, "laughing": 0.02},
        duration_range_s=(480, 1200),
        objects={"dining_chair": 0.6},
        mobility=0.08,
        shareable=True,
    ),
    "watching_tv": ActivityProfile(
        name="watching_tv",
        sublocations={"SR2": 0.55, "SR3": 0.4, "SR12": 0.05},
        postural={"sitting": 0.84, "lying": 0.11, "standing": 0.05},
        gestural={"silent": 0.5, "talking": 0.2, "laughing": 0.16, "eating": 0.09, "yawning": 0.05},
        duration_range_s=(600, 1800),
        objects={"tv_remote": 0.5},
        mobility=0.06,
        shareable=True,
    ),
    "prepare_food": ActivityProfile(
        name="prepare_food",
        sublocations={"SR10": 0.97, "SR4": 0.03},
        postural={"standing": 0.64, "walking": 0.32, "sitting": 0.04},
        gestural={"silent": 0.66, "talking": 0.26, "yawning": 0.08},
        duration_range_s=(240, 600),
        objects={"kettle": 0.65},
        mobility=0.5,
    ),
    "studying": ActivityProfile(
        name="studying",
        sublocations={"SR7": 0.94, "SR14": 0.06},
        postural={"sitting": 0.93, "standing": 0.05, "walking": 0.02},
        gestural={"silent": 0.8, "talking": 0.1, "yawning": 0.1},
        duration_range_s=(600, 1500),
        objects={"study_book": 0.55},
        mobility=0.05,
    ),
    "sleeping": ActivityProfile(
        name="sleeping",
        sublocations={"SR5": 1.0},
        postural={"lying": 0.97, "sitting": 0.03},
        gestural={"silent": 0.93, "yawning": 0.07},
        duration_range_s=(600, 1500),
        objects={"bed_frame": 0.5},
        mobility=0.01,
        shareable=True,
    ),
    "bathrooming": ActivityProfile(
        name="bathrooming",
        sublocations={"SR9": 1.0},
        postural={"standing": 0.7, "sitting": 0.25, "walking": 0.05},
        gestural={"silent": 0.96, "yawning": 0.04},
        duration_range_s=(240, 720),
        mobility=0.25,
        exclusive=True,
    ),
    "cooking": ActivityProfile(
        name="cooking",
        sublocations={"SR10": 0.89, "SR4": 0.03, "SR12": 0.08},
        postural={"standing": 0.58, "walking": 0.38, "sitting": 0.04},
        gestural={"silent": 0.6, "talking": 0.3, "yawning": 0.1},
        duration_range_s=(600, 1500),
        objects={"stove": 0.85, "kettle": 0.3},
        mobility=0.55,
    ),
    "past_times": ActivityProfile(
        name="past_times",
        sublocations={"SR11": 0.5, "SR2": 0.3, "SR12": 0.2},
        postural={"sitting": 0.6, "standing": 0.3, "walking": 0.1},
        gestural={"talking": 0.4, "laughing": 0.18, "silent": 0.34, "eating": 0.08},
        duration_range_s=(480, 1200),
        mobility=0.18,
        shareable=True,
    ),
    "random": ActivityProfile(
        name="random",
        sublocations={"SR13": 0.45, "SR12": 0.3, "SR14": 0.25},
        postural={"walking": 0.72, "standing": 0.28},
        gestural={"silent": 0.86, "talking": 0.1, "yawning": 0.04},
        duration_range_s=(30, 180),
        mobility=0.85,
    ),
}


def activity_profile(name: str) -> ActivityProfile:
    """Profile for macro activity *name* (raises KeyError on unknown names)."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown macro activity {name!r}; known: {sorted(_PROFILES)}"
        ) from None

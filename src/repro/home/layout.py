"""Apartment floor plan: rooms, 14 sub-regions, and sensor placement.

Mirrors the paper's Fig 7 testbed: a one-bedroom apartment divided into 14
sub-regions SR1-SR14 (exercise-bike area, two couches, dining table, bed,
two closets, reading table, bathroom, kitchen, porch, and the residual
living-room / corridor / bedroom areas), instrumented with one PIR per room,
8 object sensors, and 9 iBeacons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.sensors.ibeacon import Beacon
from repro.sensors.motion_grid import AreaMotionSensor
from repro.sensors.object_sensor import ObjectSensor
from repro.sensors.pir import PirSensor
from repro.util.rng import RandomState, ensure_rng

#: Rooms of the one-bedroom apartment (each carries one PIR).
ROOMS: Tuple[str, ...] = ("livingroom", "bedroom", "bathroom", "kitchen", "porch", "corridor")


@dataclass(frozen=True)
class SubRegion:
    """One of the 14 sub-regions: a disc inside a room."""

    sr_id: str
    name: str
    room: str
    center: Tuple[float, float]
    radius: float = 0.9


#: Sub-region table following Table III's sub-location list.
SUB_REGIONS: Tuple[SubRegion, ...] = (
    SubRegion("SR1", "exercise_bike_area", "livingroom", (1.2, 1.2)),
    SubRegion("SR2", "couch_1", "livingroom", (3.4, 1.0)),
    SubRegion("SR3", "couch_2", "livingroom", (5.2, 1.0)),
    SubRegion("SR4", "dining_table", "livingroom", (3.2, 3.4)),
    SubRegion("SR5", "bed", "bedroom", (9.6, 6.8)),
    SubRegion("SR6", "closet_1", "bedroom", (11.2, 5.4)),
    SubRegion("SR7", "reading_table", "bedroom", (8.0, 7.4)),
    SubRegion("SR8", "closet_2", "bedroom", (11.2, 7.8)),
    SubRegion("SR9", "bathroom", "bathroom", (6.6, 7.2), 1.1),
    SubRegion("SR10", "kitchen", "kitchen", (1.4, 6.6), 1.3),
    SubRegion("SR11", "porch", "porch", (0.8, 4.0), 1.0),
    SubRegion("SR12", "rest_of_livingroom", "livingroom", (5.0, 3.2), 1.4),
    SubRegion("SR13", "corridor", "corridor", (6.2, 4.8), 1.2),
    SubRegion("SR14", "rest_of_bedroom", "bedroom", (9.4, 5.2), 1.3),
)

#: Instrumented objects: object name -> hosting sub-region (8 sensors).
OBJECT_PLACEMENT: Dict[str, str] = {
    "exercise_bike": "SR1",
    "tv_remote": "SR2",
    "dining_chair": "SR4",
    "bed_frame": "SR5",
    "wardrobe": "SR6",
    "study_book": "SR7",
    "kettle": "SR10",
    "stove": "SR10",
}

#: CASAS-style item sensors: object name -> hosting sub-region.  The WSU
#: ADLMR testbed instruments the props of its 15 scripted tasks (medication
#: dispenser, checkers box, watering can, ...); these are the synthetic
#: counterparts at the sub-regions where the tasks happen.
CASAS_OBJECT_PLACEMENT: Dict[str, str] = {
    "medication_dispenser": "SR10",
    "checkers_box": "SR4",
    "watering_can": "SR11",
    "broom": "SR12",
    "laundry_basket": "SR14",
    "dishes_cabinet": "SR10",
    "magazine_rack": "SR2",
    "study_book": "SR7",
    "bills_folder": "SR4",
    "picnic_basket": "SR10",
    "supplies_box": "SR8",
    "wardrobe": "SR6",
    "furniture": "SR12",
    "stove": "SR10",
}

#: iBeacon anchor positions (9 beacons as in the testbed).
BEACON_POSITIONS: Tuple[Tuple[float, float], ...] = (
    (0.5, 0.5),
    (5.5, 0.5),
    (0.5, 4.5),
    (3.0, 3.0),
    (6.5, 5.0),
    (1.0, 7.5),
    (7.0, 8.0),
    (11.5, 8.5),
    (11.5, 4.5),
)

#: Apartment bounding box (xmin, ymin, xmax, ymax) in metres.
BOUNDS: Tuple[float, float, float, float] = (0.0, 0.0, 12.0, 9.0)


@dataclass
class ApartmentLayout:
    """A concrete apartment: geometry plus its deployed sensor fleet."""

    sub_regions: Tuple[SubRegion, ...] = SUB_REGIONS
    bounds: Tuple[float, float, float, float] = BOUNDS
    pir_sensors: List[PirSensor] = field(default_factory=list)
    object_sensors: List[ObjectSensor] = field(default_factory=list)
    beacons: List[Beacon] = field(default_factory=list)
    #: Optional CASAS-style per-sub-region motion grid (empty in CACE mode).
    motion_sensors: List[AreaMotionSensor] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_id: Dict[str, SubRegion] = {sr.sr_id: sr for sr in self.sub_regions}
        if len(self._by_id) != len(self.sub_regions):
            raise ValueError("duplicate sub-region ids in layout")

    # -- lookups --------------------------------------------------------------

    def sub_region(self, sr_id: str) -> SubRegion:
        """Sub-region by id (``"SR1"`` .. ``"SR14"``)."""
        try:
            return self._by_id[sr_id]
        except KeyError:
            raise KeyError(f"unknown sub-region {sr_id!r}") from None

    def room_of(self, sr_id: str) -> str:
        """Room containing a sub-region."""
        return self.sub_region(sr_id).room

    @property
    def sub_region_ids(self) -> List[str]:
        """All sub-region ids, in declaration order."""
        return [sr.sr_id for sr in self.sub_regions]

    @property
    def rooms(self) -> Tuple[str, ...]:
        """All rooms present in the layout."""
        seen: List[str] = []
        for sr in self.sub_regions:
            if sr.room not in seen:
                seen.append(sr.room)
        return tuple(seen)

    def sample_position(self, sr_id: str, rng: np.random.Generator) -> Tuple[float, float]:
        """Random position inside a sub-region's disc."""
        sr = self.sub_region(sr_id)
        r = sr.radius * np.sqrt(rng.random())
        theta = rng.uniform(0, 2 * np.pi)
        return (sr.center[0] + r * np.cos(theta), sr.center[1] + r * np.sin(theta))


def default_layout(seed: RandomState = None) -> ApartmentLayout:
    """Build the standard testbed layout with its full sensor complement."""
    rng = ensure_rng(seed)
    pir = [
        PirSensor(sensor_id=f"pir:{room}", room=room, seed=rng.integers(0, 2**31))
        for room in ROOMS
    ]
    objects = [
        ObjectSensor(
            sensor_id=f"obj:{name}",
            object_name=name,
            sub_region=sr_id,
            seed=rng.integers(0, 2**31),
        )
        for name, sr_id in OBJECT_PLACEMENT.items()
    ]
    beacons = [
        Beacon(beacon_id=f"beacon:{i}", position=pos) for i, pos in enumerate(BEACON_POSITIONS)
    ]
    return ApartmentLayout(pir_sensors=pir, object_sensors=objects, beacons=beacons)


def casas_layout(seed: RandomState = None) -> ApartmentLayout:
    """Build a CASAS-style layout: per-sub-region motion grid + item sensors.

    Mirrors the WSU ADLMR instrumentation as the paper consumed it: motion
    sensors at sub-location granularity (a firing means "this sub-location
    is occupied by someone"), item sensors on the 15 tasks' props, room
    PIRs retained, no iBeacons (the public corpus has none).
    """
    rng = ensure_rng(seed)
    pir = [
        PirSensor(sensor_id=f"pir:{room}", room=room, seed=rng.integers(0, 2**31))
        for room in ROOMS
    ]
    motion = [
        AreaMotionSensor(
            sensor_id=f"motion:{sr.sr_id}",
            sub_region=sr.sr_id,
            seed=rng.integers(0, 2**31),
        )
        for sr in SUB_REGIONS
    ]
    objects = [
        ObjectSensor(
            sensor_id=f"obj:{name}",
            object_name=name,
            sub_region=sr_id,
            seed=rng.integers(0, 2**31),
        )
        for name, sr_id in CASAS_OBJECT_PLACEMENT.items()
    ]
    return ApartmentLayout(
        pir_sensors=pir, object_sensors=objects, beacons=[], motion_sensors=motion
    )

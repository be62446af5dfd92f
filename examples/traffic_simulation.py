"""Traffic simulation example (the large-scale simulation of Section 4.2).

Runs the car-following workload on a single engine and reports the mean
velocity after a few ticks.  ``examples/sharded_world.py`` shows the same
kind of world split across worker processes.

Run with:  python examples/traffic_simulation.py
"""

from repro.workloads import build_traffic_world


def main() -> None:
    world = build_traffic_world(400, n_lanes=4, road_length=2000.0)
    for _ in range(5):
        world.tick()
    velocities = [v["velocity"] for v in world.objects("Vehicle")]
    print(f"single node: 400 vehicles, mean velocity {sum(velocities) / len(velocities):.2f}")


if __name__ == "__main__":
    main()

"""End-to-end warp-job benchmark (see README.md in this directory).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one seeded workload through the system's public entry
points and prints its metrics, ending with one JSON line.
"""

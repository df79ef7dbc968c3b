"""Host-time benchmark of the SDT simulator.

``python3 perfbench/run.py --workload ib-dense`` runs one workload and prints
its metrics as the last line of standard output; see ``perfbench/README.md``
for the workloads, the metrics and the layer map.
"""

"""Graph-convolutional regression of earthquake shaking intensity from
short multi-station waveform windows, with a from-scratch tensor engine,
synthetic data generation, classical baselines, and an experiment CLI.

The API lives in the submodules; importing the package loads none of them.
"""

__version__ = "0.1.0"

"""Interest-aware point cloud video streaming lab.

Modules
-------
cloud      point cloud types, partitioning, culling, CD/HD metrics
roi        two-stage region-of-interest selection
nn         minimal dense-network engine with analytic gradients
codec      point-block autoencoder, pruning/quantization, octree baseline
scheduler  actor-critic codec-model scheduler
sim        synthetic scenes, bandwidth traces, streaming simulator
"""

__version__ = "0.1.0"

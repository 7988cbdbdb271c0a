"""Ray Data stage wrappers around the pure kernels.

Work that holds nothing costly to rebuild ships to ``map_batches`` as a plain
function or a callable INSTANCE, so Ray runs it as tasks: the extraction
stage (``TurnExtractor``, which builds its HTML parser per batch) and the
rule classifiers (compiled patterns only). A stage with state worth keeping
warm (model weights, trained tables, broadcast lookups) is a callable class
run as an actor pool (``map_batches(Cls, concurrency=N)``) — the Ray
equivalent of the reference's ``PredictorBase.clone()`` one-instance-per-worker
pattern (``extern/base.py:253-271``).
"""

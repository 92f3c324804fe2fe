"""Trainable no-reference image quality assessment.

A small vision transformer is trained in two stages: first to predict
per-pixel error maps from the distorted image alone, then, with that
branch frozen, a learnable quality token plus a fusion head regress a
scalar quality score. Everything runs on numpy through a taped
reverse-mode tensor core; results are deterministic in the run seed.

The package re-exports nothing; import each name from the module that
owns it:

- ``tensor``: ``Tensor``, ``Tape``, ``backward`` and every differentiable op.
- ``params``: named parameter stores and their initialisation.
- ``encoder``: ``ModelConfig`` and the patch-token transformer.
- ``decoder``: token layers to a predicted error map.
- ``quality``: the fusion head, quality loss and attention maps.
- ``supervision``: objective error maps and ``pem_loss``.
- ``training``: both training stages, Adam, checkpoints and evaluation.
- ``data``: manifests, synthetic datasets and patch sampling.
- ``imaging``: PGM/PPM files, textures and distortions.
- ``metrics``: SROCC and PLCC.
- ``config``: ``key = value`` run configuration files.
- ``rng``: counter-based seeded randomness.
- ``errors``: the typed exceptions.
- ``gradcheck``: finite-difference checks of every backward rule.
- ``cli``: the ``tempqt`` command.
"""

"""Extrinsic total-variance analysis of oriented projective shapes.

Scenes of labelled planar landmarks are registered, through an oriented
frame of four landmarks, as unit vectors on a product of spheres; the
dispersion of those vectors measures how far the scenes are from sharing a
single planar configuration, with delta-method and chi-square inference,
influence diagnostics, a sign-blind comparator, and synthetic camera
oracles.
"""

__version__ = "0.1.0"

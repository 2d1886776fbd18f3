"""Dual training of an energy model and a sample generator.

The energy model learns an unnormalized log-density by pushing energy down
on data and up on generated samples; the generator learns to produce the
low-energy samples the energy model needs for that negative phase.
"""

__version__ = "0.1.0"

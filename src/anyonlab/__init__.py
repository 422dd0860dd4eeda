"""Kitaev spin-lattice simulator with abelian-anyon braiding and NMR readout."""

__version__ = "0.1.0"

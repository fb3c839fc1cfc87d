"""Finite groupoid algebras, star products, and tomographic schemes."""

"""Layer-splitting benchmark for the Obladi reproduction (see README.md)."""

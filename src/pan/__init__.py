"""Sparse radar pillar-attention backbone and its evaluation stack."""

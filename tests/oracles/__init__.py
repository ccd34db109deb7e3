"""Reference implementations the equivalence tests compare fast paths to."""

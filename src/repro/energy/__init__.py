"""Energy and performance models (paper Tables 2 and 3)."""

"""Core: the Lite mechanism, TLB organizations, and the MMU simulator."""

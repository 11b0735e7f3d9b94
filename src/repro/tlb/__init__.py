"""TLB structures: set-associative, fully-associative, and range TLBs."""

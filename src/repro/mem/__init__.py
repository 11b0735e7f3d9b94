"""OS memory-management substrate: frames, VMAs, paging policies, ranges."""

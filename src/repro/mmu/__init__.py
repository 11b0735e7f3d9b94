"""MMU substrate: translation types, radix page table, MMU caches, walker."""

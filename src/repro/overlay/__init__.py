"""P-Grid overlay substrate: keys, hashing, trie, peers, routing, ranges."""

"""Vertical triple storage: triples, schemas, q-grams, index entries."""

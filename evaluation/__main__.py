"""``python -m evaluation`` entry point."""

from evaluation.cli import main

raise SystemExit(main())

"""Crawl + date-extraction benchmark (see run.py)."""

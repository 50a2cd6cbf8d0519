"""Shared fixtures for the whole test tree."""

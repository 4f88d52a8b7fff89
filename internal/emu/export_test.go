package emu

// DecodeSlots exposes the decoded-instruction table size to the
// external tests that build guests aliasing on it.
const DecodeSlots = decodeSlots

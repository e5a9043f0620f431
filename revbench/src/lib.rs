//! Statistics shared by the `revbench` runner and the `steady` command.

pub mod stats;

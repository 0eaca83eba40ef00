//! Timing wrappers around each layer's public boundary.
//!
//! The controller and the flash cache are generic over the traits
//! wrapped here, so the traced run swaps these in while the end-to-end
//! run uses the bare types. Each wrapper only forwards and times; no
//! simulated statistic depends on which one runs.

use crate::trace::{timed, TraceHandle};
use sos_bench::experiments::FtlCacheBackend;
use sos_classify::Classifier;
use sos_core::{
    DeviceCounters, ObjectData, ObjectError, ObjectId, ObjectStore, Partition, SosDevice,
};
use sos_ftl::Ftl;
use sos_workload::{CacheBackend, CacheBackendError, CacheReadback, ObjectMeta};

/// An [`ObjectStore`] that times put, get, update, delete, migrate and
/// maintain.
pub struct TracedStore<D> {
    pub inner: D,
    tracer: TraceHandle,
}

impl<D> TracedStore<D> {
    pub fn new(inner: D, tracer: TraceHandle) -> Self {
        TracedStore { inner, tracer }
    }
}

impl<D: ObjectStore> ObjectStore for TracedStore<D> {
    fn put(&mut self, id: ObjectId, bytes: &[u8], partition: Partition) -> Result<(), ObjectError> {
        timed(Some(&self.tracer), "device.put", || {
            self.inner.put(id, bytes, partition)
        })
    }

    fn get(&mut self, id: ObjectId) -> Result<ObjectData, ObjectError> {
        timed(Some(&self.tracer), "device.get", || self.inner.get(id))
    }

    fn update(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), ObjectError> {
        timed(Some(&self.tracer), "device.update", || {
            self.inner.update(id, bytes)
        })
    }

    fn delete(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        timed(Some(&self.tracer), "device.delete", || {
            self.inner.delete(id)
        })
    }

    fn migrate(&mut self, id: ObjectId, partition: Partition) -> Result<(), ObjectError> {
        timed(Some(&self.tracer), "device.migrate", || {
            self.inner.migrate(id, partition)
        })
    }

    fn placement(&self, id: ObjectId) -> Option<Partition> {
        self.inner.placement(id)
    }

    fn advance_days(&mut self, days: f64) {
        self.inner.advance_days(days);
    }

    fn maintain(&mut self) -> Result<bool, ObjectError> {
        timed(Some(&self.tracer), "device.maintain", || {
            self.inner.maintain()
        })
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn counters(&self) -> DeviceCounters {
        self.inner.counters()
    }
}

/// A [`Classifier`] that times every prediction.
pub struct TracedClassifier<C> {
    inner: C,
    tracer: TraceHandle,
}

impl<C> TracedClassifier<C> {
    pub fn new(inner: C, tracer: TraceHandle) -> Self {
        TracedClassifier { inner, tracer }
    }
}

impl<C: Classifier> Classifier for TracedClassifier<C> {
    fn train(&mut self, features: &[Vec<f64>], labels: &[bool]) {
        self.inner.train(features, labels);
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        timed(Some(&self.tracer), "classify.predict", || {
            self.inner.predict_proba(features)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`CacheBackend`] that times every put, get and evict.
pub struct TracedCache<B> {
    pub inner: B,
    tracer: TraceHandle,
}

impl<B> TracedCache<B> {
    pub fn new(inner: B, tracer: TraceHandle) -> Self {
        TracedCache { inner, tracer }
    }
}

impl<B: CacheBackend> CacheBackend for TracedCache<B> {
    fn put(&mut self, slot: u64, pages: u64, meta: ObjectMeta) -> Result<(), CacheBackendError> {
        timed(Some(&self.tracer), "ftl.cache_put", || {
            self.inner.put(slot, pages, meta)
        })
    }

    fn get(&mut self, slot: u64, pages: u64) -> Result<CacheReadback, CacheBackendError> {
        timed(Some(&self.tracer), "ftl.cache_get", || {
            self.inner.get(slot, pages)
        })
    }

    fn evict(&mut self, slot: u64, pages: u64) -> Result<(), CacheBackendError> {
        timed(Some(&self.tracer), "ftl.cache_evict", || {
            self.inner.evict(slot, pages)
        })
    }
}

/// Reaches the SOS device behind a store, wrapped or bare.
pub trait HasDevice: ObjectStore {
    fn sos(&self) -> &SosDevice;
    fn sos_mut(&mut self) -> &mut SosDevice;
}

impl HasDevice for SosDevice {
    fn sos(&self) -> &SosDevice {
        self
    }
    fn sos_mut(&mut self) -> &mut SosDevice {
        self
    }
}

impl HasDevice for TracedStore<SosDevice> {
    fn sos(&self) -> &SosDevice {
        &self.inner
    }
    fn sos_mut(&mut self) -> &mut SosDevice {
        &mut self.inner
    }
}

/// Reaches the FTL behind a cache backend, wrapped or bare.
pub trait HasFtl: CacheBackend {
    fn backend_mut(&mut self) -> &mut FtlCacheBackend;
    fn ftl(&self) -> &Ftl;
}

impl HasFtl for FtlCacheBackend {
    fn backend_mut(&mut self) -> &mut FtlCacheBackend {
        self
    }
    fn ftl(&self) -> &Ftl {
        FtlCacheBackend::ftl(self)
    }
}

impl HasFtl for TracedCache<FtlCacheBackend> {
    fn backend_mut(&mut self) -> &mut FtlCacheBackend {
        &mut self.inner
    }
    fn ftl(&self) -> &Ftl {
        self.inner.ftl()
    }
}
